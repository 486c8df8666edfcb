"""Lattice polygon geometry: volume, duality, canonical forms, Ehrhart."""

import inspect
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    GL2Z_GENS,
    random_unimodular,
    reference_closed_sequences,
    reference_fan_key,
)

from reflexo import polygon
from reflexo.catalog import NAMES, _dual_fan_sequence, dual_name, get, name_of
from reflexo.polygon import (
    Edge,
    Polygon,
    _cross,
    _sub,
    apply_unimodular,
    canonical_form,
    convex_hull,
    enumerate_reflexive,
    lattice_point_count,
    polar_dual,
)


def _rotate_lex_min(vs):
    n = len(vs)
    best = None
    for i in range(n):
        cand = tuple(vs[i:] + vs[:i])
        if best is None or cand < best:
            best = cand
    return best


def reference_boundary_points(P: Polygon) -> list:
    """Boundary lattice points in CCW order from vertex 0, read off the
    `Edge` objects of P."""
    return [pt for e in P.edges() for pt in e.lattice_points()[:-1]]


def reference_is_reflexive(P: Polygon) -> bool:
    """Every edge at lattice height -1, read off the `Edge` objects of P."""
    return all(e.normal_value() == -1 for e in P.edges())


def reference_canonical_form(P: Polygon) -> Polygon:
    """Reference canonical form that tries every ordered pair of boundary
    points and builds one Polygon per candidate map; `canonical_form` must
    agree with it exactly."""
    bpts = reference_boundary_points(P)
    best = None
    for p in bpts:
        for q in bpts:
            det = _cross(p, q)
            if abs(det) != 1:
                continue
            # U with U p = e1, U q = e2:  U = inverse of [p q]
            a, b = p
            c, d = q
            U = ((det * d, -det * c), (-det * b, det * a))
            img = apply_unimodular(U, P)
            cand = _rotate_lex_min(img.vertices)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise ValueError(
            "no unimodular boundary pair; canonical form undefined for this polygon"
        )
    # the hull of best lists it CCW from its least vertex: best itself
    return Polygon(best)


def reference_cycles(bound: int) -> list[frozenset]:
    """Vertex sets of all reflexive polygons with vertices in
    [-bound, bound]^2, each closed once by a walk with no symmetry pruning:
    admissible edges come from `Edge.normal_value`, and a cycle starts at its
    lex-least vertex."""
    pts = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and gcd(x, y) == 1
    ]
    succ = {
        p: [q for q in pts if q != p and Edge(p, q).normal_value() == -1]
        for p in pts
    }
    closed = []

    def dfs(chain):
        start, last = chain[0], chain[-1]
        past_half_turn = _cross(start, last) < 0
        for q in succ[last]:
            if len(chain) >= 3 and q == start:
                if (
                    _cross(_sub(start, last), _sub(chain[1], start)) > 0
                    and _cross(_sub(last, chain[-2]), _sub(start, last)) > 0
                ):
                    poly = Polygon(chain)
                    if (set(poly.vertices) == set(chain)
                            and reference_is_reflexive(poly)):
                        closed.append(frozenset(chain))
                continue
            if q <= start:
                continue
            if past_half_turn and _cross(start, q) >= 0:
                continue
            if len(chain) >= 2 and _cross(_sub(last, chain[-2]), _sub(q, last)) <= 0:
                continue
            if len(chain) >= 6:
                continue
            dfs(chain + [q])

    for p in pts:
        dfs([p])
    return closed


def reference_enumerate(bound: int) -> list[Polygon]:
    """Reference enumeration that canonicalises every reflexive polygon in
    the box; `enumerate_reflexive` must agree with it exactly."""
    found = {}
    for vs in reference_cycles(bound):
        cf = reference_canonical_form(Polygon(vs))
        found.setdefault(tuple(cf.vertices), cf)
    return sorted(found.values(), key=lambda P: (P.volume(), tuple(P.vertices)))


@pytest.fixture(scope="module")
def box4():
    """Every reflexive polygon with vertices in [-4, 4]^2, once each."""
    return [Polygon(vs) for vs in reference_cycles(4)]


# non-reflexive polygons: the origin a vertex, on an edge, outside, or one
# of several interior points
NON_REFLEXIVE = [
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (2, 0), (0, 3)],
    [(-1, 0), (1, 0), (0, 2)],
    [(2, 0), (0, 2), (-2, -2)],
    [(1, 1), (3, 1), (2, 4)],
    [(-2, -1), (3, -1), (1, 2), (-1, 2)],
]


def _outcome(f, P):
    """f(P)'s vertex list, or the type of the ValueError it raises."""
    try:
        return f(P).vertices
    except ValueError:
        return ValueError


def _record(monkeypatch, name: str) -> list:
    """Replace polygon.<name> by a wrapper recording its inputs: with
    "_dihedral_min" the fan sequence of every cycle the enumeration closes,
    with "canonical_form" every polygon it canonicalises."""
    original = getattr(polygon, name)
    seen = []

    def wrapper(x):
        seen.append(x)
        return original(x)

    monkeypatch.setattr(polygon, name, wrapper)
    return seen


class TestVertices:
    def test_non_integral_rejected(self):
        # [TRIVIAL] a vertex is not truncated to a lattice point: a float
        # raises TypeError, a non-integral rational ValueError
        with pytest.raises(ValueError, match="non-integral"):
            Polygon([(Fraction(3, 2), 0), (0, 1), (-1, -1)])
        with pytest.raises(ValueError, match="non-integral"):
            Polygon._from_ccw([(1, 0), (0, Fraction(-1, 3)), (-1, -1)])
        for x in (1.7, 1.0):
            with pytest.raises(TypeError):
                Polygon([(x, 0), (0, 1), (-1, -1)])

    def test_clockwise_order_is_reoriented(self):
        # [DERIVED] P3 listed clockwise is P3
        P = Polygon([(0, 1), (1, 0), (-1, -1)])
        assert P.is_reflexive()
        assert P.volume() == 3
        assert canonical_form(P).vertices == canonical_form(get("3")).vertices

    def test_self_intersecting_order_gives_the_hull(self):
        # [DERIVED] this order of a pentagon turns left at every vertex and
        # winds twice around the origin; the polygon is the pentagon
        P = Polygon([(2, 1), (-2, 1), (1, -2), (0, 2), (-1, -2)])
        assert P.vertices == [(-2, 1), (-1, -2), (1, -2), (2, 1), (0, 2)]
        assert P.volume() == 22

    def test_integral_accepted(self):
        # [TRIVIAL] ints and integral Fractions give int coordinates
        P = Polygon([(Fraction(2, 2), 0), (0, Fraction(1)), (-1, -1)])
        assert P == get("3")
        assert all(type(c) is int for v in P.vertices for c in v)


class TestVolume:
    def test_p3(self):
        # [DERIVED] shoelace of the triangle (1,0),(0,1),(-1,-1)
        assert get("3").volume() == 3

    def test_p4a(self):
        # [PAPER] vertex list (1,0),(0,1),(-1,0),(0,-1)
        assert get("4a").volume() == 4
        assert set(get("4a").vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_volume_duality(self, catalog):
        # [PAPER] Vol(P) + Vol(P polar) = 12 for each of the 16
        for P in catalog.values():
            assert P.volume() + polar_dual(P).volume() == 12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (2, 0)])

    def test_clockwise_rejected(self):
        # [TRIVIAL] _from_ints keeps its list as given, so a clockwise
        # triangle has a negative shoelace sum
        P = Polygon._from_ints([(0, 0), (0, 1), (1, 0)])
        with pytest.raises(ValueError, match="mis-oriented"):
            P.volume()


class TestPolarDual:
    def test_3_to_9(self):
        # [PAPER] (P3) polar = P9
        assert canonical_form(polar_dual(get("3"))) == canonical_form(get("9"))

    def test_dual_pairing_table(self):
        # [PAPER] (P3)°=P9, (P4i)°=P8i, (P5i)°=P7i, P6* self-dual classes
        pairs = {
            "3": "9", "4a": "8a", "4b": "8b", "4c": "8c",
            "5a": "7a", "5b": "7b", "6a": "6a", "6b": "6b",
            "6c": "6c", "6d": "6d",
        }
        for a, b in pairs.items():
            assert dual_name(a) == b
            assert dual_name(b) == a

    def test_dual_sequence_is_the_duals(self, catalog):
        # [DERIVED] the fan sequence read off P's own is polar_dual(P)'s,
        # from the normal of P's first edge, so equal up to rotation and
        # reversal a fortiori: on the 16 and on 10 seeded GL2(Z) images of
        # each (seed 50)
        rng = random.Random(50)
        for P in catalog.values():
            images = [apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
                      for _ in range(10)]
            for Q in [P] + images:
                assert _dual_fan_sequence(polygon._fan_sequence(Q)) == \
                    polygon._fan_sequence(polar_dual(Q))

    def test_dual_name_is_the_name_of_the_dual(self):
        # [DERIVED] on all 16 the name read off the fan sequence is the
        # polar dual's, and dual_name is an involution
        for n in NAMES:
            assert dual_name(n) == name_of(polar_dual(get(n)))
            assert dual_name(dual_name(n)) == n

    def test_name_of_sheared_catalog(self):
        # [DERIVED] the name depends on the GL2(Z) class, not the coordinates
        for n in NAMES:
            for k in range(-2, 3):
                for U in (((1, k), (0, 1)), ((1, 0), (k, 1))):
                    assert name_of(apply_unimodular(U, get(n))) == n

    def test_name_of_unknown_polygon(self):
        # the second triangle has no unimodular pair of boundary points, so
        # no canonical form; the last two are not reflexive but have 4c's
        # fan key, by the boundary-point definition for the triangle and by
        # the vertex one for the translate of 4c
        triangle = Polygon([(-3, -3), (-1, -1), (-3, -2)])
        shifted = Polygon([(x + 5, y) for x, y in get("4c").vertices])
        assert reference_fan_key(triangle) == polygon._fan_key(shifted) == \
            polygon._fan_key(get("4c"))
        for P in (Polygon([(0, 0), (1, 0), (0, 1)]),
                  Polygon([(-1, 0), (1, 0), (0, 2)]), triangle, shifted):
            with pytest.raises(KeyError):
                name_of(P)

    def test_4b_dual_vertices(self):
        # [DERIVED] normals of conv{(1,0),(0,1),(-1,1),(0,-1)}
        Q = polar_dual(get("4b"))
        assert set(Q.vertices) == {(-1, -1), (0, -1), (2, 1), (-1, 1)}

    def test_self_dual_6c_exact(self):
        # [PAPER] polar_dual(P6c) = P6c exactly
        P = get("6c")
        assert set(polar_dual(P).vertices) == set(P.vertices)

    def test_involution(self, catalog):
        # [TRIVIAL] double dual is the identity up to canonical form
        for P in catalog.values():
            assert canonical_form(polar_dual(polar_dual(P))) == canonical_form(P)

    def test_non_reflexive_rejected(self):
        with pytest.raises(ValueError):
            polar_dual(Polygon([(2, 0), (0, 2), (-2, -2)]))


class TestApplyUnimodular:
    @pytest.mark.parametrize("U", [((2, 0), (0, 1)), ((1, 1), (1, 1)),
                                   ((1, 2), (3, 4))])
    def test_refuses_det_not_unit(self, U):
        # [TRIVIAL] det 2, 0 and -2: not in GL2(Z)
        with pytest.raises(ValueError, match="not unimodular"):
            apply_unimodular(U, get("3"))

    def test_refuses_non_integral_entries(self):
        # [DERIVED] ((2, 0), (0, 1/2)) has determinant 1 but is not in
        # GL2(Z): on 8c in the chart [(1, 0), (5, 2), (-7, -2)] it would
        # give [(2, 0), (10, 1), (-14, -1)], which is not reflexive.  Each
        # entry is checked as a lattice coordinate before the determinant
        P = Polygon([(1, 0), (5, 2), (-7, -2)])
        assert name_of(P) == "8c"
        with pytest.raises(ValueError, match="non-integral"):
            apply_unimodular(((2, 0), (0, Fraction(1, 2))), P)
        with pytest.raises(TypeError):
            apply_unimodular(((1.0, 0), (0, 1)), P)
        one = Fraction(1, 1)
        Q = apply_unimodular(((one, one), (0, one)), P)
        assert Q == apply_unimodular(((1, 1), (0, 1)), P)
        assert all(type(a) is int for v in Q.vertices for a in v)


class TestCanonicalForm:
    def test_unimodular_invariance(self, catalog):
        # [TRIVIAL] canonical_form(P) = canonical_form(U P), seeded random U
        rng = random.Random(7)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]
        for P in catalog.values():
            for _ in range(6):
                U = random_unimodular(rng, gens)
                assert canonical_form(apply_unimodular(U, P)) == canonical_form(P)

    def test_4a_not_4b(self):
        # [PAPER] P4a and P4b are inequivalent
        assert canonical_form(get("4a")) != canonical_form(get("4b"))

    def test_catalog_classes_distinct(self, catalog):
        forms = {tuple(canonical_form(P).vertices) for P in catalog.values()}
        assert len(forms) == 16

    def test_matches_reference_under_gl2z(self, catalog):
        # [DERIVED] same vertex list as the per-candidate-Polygon version,
        # orientation-reversing maps included
        rng = random.Random(20261018)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
                ((0, 1), (1, 0))]
        for P in catalog.values():
            for _ in range(12):
                Q = apply_unimodular(random_unimodular(rng, gens), P)
                assert canonical_form(Q).vertices == \
                    reference_canonical_form(Q).vertices

    @pytest.mark.parametrize("vertices", NON_REFLEXIVE[:3])
    def test_matches_reference_with_origin_on_boundary(self, vertices):
        # [DERIVED] the origin a vertex or on an edge: some frame levels hold
        # no unimodular pair, and the search must pass over them; the last
        # triangle has no unimodular boundary pair at all
        P = Polygon(vertices)
        assert _outcome(canonical_form, P) == \
            _outcome(reference_canonical_form, P)

    def test_matches_reference_on_non_reflexive(self):
        # [DERIVED] seeded lattice polygons in [-4, 4]^2, most not reflexive
        rng = random.Random(20)
        checked = 0
        while checked < 60:
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
            if len(convex_hull(pts)) < 3:
                continue
            P = Polygon(pts)
            assert _outcome(canonical_form, P) == \
                _outcome(reference_canonical_form, P)
            checked += 1

    def test_non_strict_level_skip_mutant_is_caught(self, catalog):
        # [DERIVED] a copy of canonical_form that also skips a frame at the
        # best candidate's level (>= for >) misses the smaller candidates
        # such a frame can hold: it differs from the reference on some of
        # the 16
        src = inspect.getsource(polygon.canonical_form)
        assert src.count("level > best") == 1
        namespace = dict(vars(polygon))
        exec(src.replace("level > best", "level >= best"), namespace)
        mutant = namespace["canonical_form"]
        assert any(mutant(P).vertices != reference_canonical_form(P).vertices
                   for P in catalog.values())

    def test_matches_reference_on_enumerated_polygons(self, box4):
        # [DERIVED] every reflexive vertex set in [-4, 4]^2
        assert len(box4) == 1292
        for Q in box4:
            assert canonical_form(Q).vertices == \
                reference_canonical_form(Q).vertices


class TestEnumeration:
    def test_sixteen_classes(self):
        # [PAPER] exactly 16 classes; volume multiset from the class names
        classes = enumerate_reflexive(3)
        assert len(classes) == 16
        assert sorted(P.volume() for P in classes) == [
            3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9
        ]

    def test_closed_under_dual(self):
        # [PAPER] the 16-element set is closed under polar duality
        classes = enumerate_reflexive(3)
        keys = {tuple(canonical_form(P).vertices) for P in classes}
        for P in classes:
            assert tuple(canonical_form(polar_dual(P)).vertices) in keys

    def test_bound_below_three_rejected(self):
        # [TRIVIAL] a box smaller than [-3, 3]^2 is refused
        with pytest.raises(ValueError, match="bound"):
            enumerate_reflexive(2)

    @pytest.mark.parametrize("bound", [4, 5])
    def test_larger_box_same_classes(self, bound):
        # [PAPER] every reflexive polygon is GL2(Z)-equivalent to one in
        # [-3, 3]^2, so a larger box finds the same 16 classes
        assert [P.vertices for P in enumerate_reflexive(bound)] == \
            [P.vertices for P in enumerate_reflexive(3)]

    @pytest.mark.parametrize("bound", [3, 4])
    def test_matches_reference_enumeration(self, bound):
        # [DERIVED] same vertex lists as the unpruned walk
        assert [P.vertices for P in enumerate_reflexive(bound)] == \
            [P.vertices for P in reference_enumerate(bound)]

    def test_each_polygon_canonicalised_once(self, monkeypatch):
        # [DERIVED] one canonical form per fan key: 16, each to its
        # reference canonical form, and these are the classes returned
        formed = _record(monkeypatch, "canonical_form")
        classes = enumerate_reflexive(3)
        monkeypatch.undo()
        assert len(formed) == 16
        assert len({polygon._fan_key(P) for P in formed}) == 16
        for P in formed:
            assert canonical_form(P).vertices == \
                reference_canonical_form(P).vertices
        assert sorted(canonical_form(P).vertices for P in formed) == \
            sorted(P.vertices for P in classes)

    def test_closed_sequences_round_trip(self, monkeypatch):
        # [DERIVED] each fan sequence the enumeration keeps closes once
        # around the origin: the hull of its points b_i is a reflexive
        # polygon whose boundary points are exactly the b_i, and whose fan
        # key is the sequence's key; 30 sequences, 16 keys
        kept = _record(monkeypatch, "_dihedral_min")
        enumerate_reflexive(3)
        monkeypatch.undo()
        assert len(kept) == len({tuple(a) for a in kept}) == 30
        for a in kept:
            n = len(a)
            assert sum(2 - x for x in a) == 12 - n
            b = [(1, 0), (0, 1)]
            for x in a[1:] + a[:1]:
                b.append((x * b[-1][0] - b[-2][0], x * b[-1][1] - b[-2][1]))
            assert b[n:] == b[:2]
            P = Polygon(b)
            assert P.is_reflexive()
            assert sorted(P.boundary_lattice_points()) == sorted(b[:n])
            assert polygon._fan_key(P) == polygon._dihedral_min(a)
        assert len({polygon._dihedral_min(a) for a in kept}) == 16

    def test_walk_keeps_every_closed_sequence(self, monkeypatch):
        # [DERIVED] the deficit bounds of the walk drop no closed sequence:
        # it passes to _dihedral_min exactly the 30 that the stars-and-bars
        # listing of all 1969 compositions keeps, each once
        kept = _record(monkeypatch, "_dihedral_min")
        enumerate_reflexive(3)
        monkeypatch.undo()
        expected = reference_closed_sequences()
        assert len(expected) == 30
        assert sorted(tuple(a) for a in kept) == sorted(expected)

    def test_closing_pair_solves_the_last_two_terms(self):
        # [DERIVED] the fact the walk stops on: for each closed sequence,
        # the prefix a_0 .. a_{n-3} with its points b_{n-3}, b_{n-2} and
        # the deficit left gives back a_{n-2} and a_{n-1}.  A wrong a_0 (a
        # closed loop has sum(3 - a_i) in 12Z, and a shift by k makes it
        # 12 - k), a wrong b_{n-2} (still a basis with b_{n-3}) or a bound
        # below a solved deficit closes none
        for a in reference_closed_sequences():
            n = len(a)
            d = [2 - x for x in a]
            b = [(1, 0), (0, 1)]
            for x in a[1:n - 2]:
                b.append((x * b[-1][0] - b[-2][0], x * b[-1][1] - b[-2][1]))
            p, q = b[-2:]
            left = d[n - 2] + d[n - 1]
            assert polygon._closing_pair(a[0], d[0], left, p, q) == a[n - 2:]
            for k in range(-11, 12):
                if k:
                    assert polygon._closing_pair(
                        a[0] + k, d[0], left, p, q) is None
            for s in (-2, -1, 1, 2):
                wrong = (q[0] + s * p[0], q[1] + s * p[1])
                assert polygon._closing_pair(
                    a[0], d[0], left, p, wrong) is None
            tight = max(d[n - 2], d[n - 1]) - 1
            assert polygon._closing_pair(a[0], tight, left, p, q) is None

    def test_catalog_matches_enumeration(self, catalog):
        keys = {
            tuple(canonical_form(P).vertices) for P in enumerate_reflexive(3)
        }
        assert {
            tuple(canonical_form(P).vertices) for P in catalog.values()
        } == keys


class TestFanKey:
    def test_gl2z_invariance(self, catalog):
        # [DERIVED] the key of U P is the key of P, for seeded random U,
        # det -1 included
        rng = random.Random(33)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
                ((0, 1), (1, 0))]
        dets = set()
        for P in catalog.values():
            for _ in range(8):
                U = random_unimodular(rng, gens)
                dets.add(U[0][0] * U[1][1] - U[0][1] * U[1][0])
                assert polygon._fan_key(apply_unimodular(U, P)) == \
                    polygon._fan_key(P)
        assert dets == {1, -1}

    def test_matches_reference_key(self, catalog, box4):
        # [DERIVED] the key read off the vertices is the key read off the
        # boundary points, on every reflexive polygon in [-4, 4]^2 and on seeded
        # GL2(Z) images of the 16, det -1 included
        rng = random.Random(34)
        dets, images = set(), []
        for P in catalog.values():
            for _ in range(8):
                U = random_unimodular(rng, GL2Z_GENS)
                dets.add(U[0][0] * U[1][1] - U[0][1] * U[1][0])
                images.append(apply_unimodular(U, P))
        assert dets == {1, -1}
        for Q in box4 + images:
            assert polygon._fan_key(Q) == reference_fan_key(Q)

    def test_name_of_matches_canonical_form_table(self, catalog, box4):
        # [DERIVED] name_of, by fan key, agrees with a table from canonical
        # forms to names on every reflexive polygon in [-4, 4]^2 and on wide
        # seeded GL2(Z) images of the 16
        table = {tuple(canonical_form(P).vertices): name
                 for name, P in catalog.items()}
        rng = random.Random(35)
        wide = [((1, 3), (0, 1)), ((1, 0), (-3, 1)), ((0, -1), (1, 0)),
                ((0, 1), (1, 0))]
        images = [
            apply_unimodular(random_unimodular(rng, wide), P)
            for P in catalog.values() for _ in range(8)
        ]
        assert max(abs(c) for Q in images for v in Q.vertices for c in v) > 50
        for Q in box4 + images:
            assert name_of(Q) == table[tuple(canonical_form(Q).vertices)]

    def test_sixteen_keys_distinct(self, catalog):
        # [PAPER] the 16 classes have 16 keys
        assert len({polygon._fan_key(P) for P in catalog.values()}) == 16

    def test_equal_keys_iff_equal_canonical_forms(self, box4):
        # [DERIVED] on every reflexive polygon in [-4, 4]^2, the key and the
        # reference canonical form determine each other
        pairs = {
            (polygon._fan_key(P), tuple(reference_canonical_form(P).vertices))
            for P in box4
        }
        assert len(pairs) == 16
        assert len({k for k, _ in pairs}) == len({f for _, f in pairs}) == 16

    def test_sum_is_twelve_rule(self, box4):
        # [DERIVED] on every reflexive polygon in [-4, 4]^2 with n boundary
        # points, the fan sequence sums to 3n - 12, and
        # n = Vol(P) = 12 - Vol(P polar)
        for P in box4:
            n = len(P.boundary_lattice_points())
            key = polygon._fan_key(P)
            assert len(key) == n
            assert sum(key) == 3 * n - 12
            assert n == P.volume() == 12 - polar_dual(P).volume()

    def test_rotation_only_key_splits_chiral_classes(self, monkeypatch):
        # [DERIVED] without reversal the key separates each chiral class
        # from its mirror image: 5b, 6b, 6d and 7b are returned twice
        monkeypatch.setattr(polygon, "_dihedral_min", _rotate_lex_min)
        classes = enumerate_reflexive(3)
        monkeypatch.undo()
        assert len(classes) == 20
        names = [name_of(P) for P in classes]
        assert sorted(n for n in set(names) if names.count(n) == 2) == \
            ["5b", "6b", "6d", "7b"]


class TestEdgeIdentity:
    def test_cross_equals_gcd_iff_height_one(self):
        # [DERIVED] <primitive inner normal of p -> q, p> = -cross(p, q) /
        # gcd(q - p), so the edge lies at lattice distance 1, CCW, exactly
        # when cross(p, q) == gcd(q - p)
        pts = [
            (x, y) for x in range(-5, 6) for y in range(-5, 6)
            if gcd(x, y) == 1
        ]
        hits = 0
        for p in pts:
            for q in pts:
                if p == q:
                    continue
                d = _sub(q, p)
                integer = _cross(p, q) == gcd(d[0], d[1])
                assert integer == (Edge(p, q).normal_value() == -1)
                hits += integer
        assert hits


class TestEhrhart:
    def test_p3_counts(self):
        # [TRIVIAL]/[DERIVED] 1, 4, 10 for m = 0, 1, 2
        P = get("3")
        assert lattice_point_count(P, 0) == 1
        assert lattice_point_count(P, 1) == 4
        assert lattice_point_count(P, 2) == 10

    def test_quadratic_ehrhart(self, catalog):
        # [DERIVED] (Vol/2) m^2 + (Vol/2) m + 1 for reflexive P, m <= 4
        for P in catalog.values():
            v = P.volume()
            for m in range(5):
                assert 2 * lattice_point_count(P, m) == v * m * m + v * m + 2

    def test_rejects_negative_m_and_nonreflexive(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lattice_point_count(get("3"), -1)
        with pytest.raises(ValueError, match="reflexive"):
            lattice_point_count(Polygon([(0, 0), (2, 0), (0, 2)]), 2)

    def test_lattice_points_rejects_negative_m(self):
        # [DERIVED] -P of 4a has 5 lattice points, but the bounding box of
        # m = -1 is empty: refused, not []
        with pytest.raises(ValueError, match="nonnegative"):
            get("4a").lattice_points(-1)


class TestEdges:
    def _polygons(self, catalog):
        """The 16, seeded GL2(Z) images of them, and non-reflexive ones."""
        rng = random.Random(11)
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
                ((0, 1), (1, 0))]
        out = list(catalog.values())
        for P in catalog.values():
            out += [apply_unimodular(random_unimodular(rng, gens), P)
                    for _ in range(4)]
        return out + [Polygon(vs) for vs in NON_REFLEXIVE]

    def test_boundary_points_match_edges(self, catalog):
        # [TRIVIAL] stepping by the gcd of each edge's direction lists the
        # same points, in the same order, as the Edge objects
        for P in self._polygons(catalog):
            assert P.boundary_lattice_points() == reference_boundary_points(P)

    def test_is_reflexive_matches_edges(self, catalog):
        # [DERIVED] cross(p, q) == gcd(q - p) on each edge p -> q is
        # Edge.normal_value() == -1
        polys = self._polygons(catalog)
        assert [P.is_reflexive() for P in polys] == \
            [reference_is_reflexive(P) for P in polys]
        assert sum(P.is_reflexive() for P in polys) == 80

    def test_boundary_count_is_volume(self, catalog):
        # [DERIVED] Pick with one interior point: boundary points = Vol
        for P in catalog.values():
            assert len(P.boundary_lattice_points()) == P.volume()
            assert sum(e.lattice_length for e in P.edges()) == P.volume()

    def test_normals_are_dual_vertices(self, catalog):
        # [DERIVED] edge normals of P = vertices of P polar
        for P in catalog.values():
            normals = {e.inner_normal for e in P.edges()}
            assert normals == set(polar_dual(P).vertices)

    def test_reflexive_edge_height(self, catalog):
        # [TRIVIAL] every edge lies at lattice height -1
        for P in catalog.values():
            for e in P.edges():
                assert e.normal_value() == -1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_canonical_form_idempotent(i, j):
    # [TRIVIAL] canonical_form is idempotent on catalog polygons and duals
    P = get(NAMES[i % 16])
    Q = polar_dual(P) if j % 2 else P
    assert canonical_form(canonical_form(Q)) == canonical_form(Q)
