"""Combinatorial mutations, the mutation graph over the 16 classes, and the
trop map."""

import random

import pytest
from oracles import GL2Z_GENS, random_unimodular, trop_map

from reflexo import mutation
from reflexo.catalog import NAMES, get, load_catalog, name_of
from reflexo.mutation import (
    MutationData,
    all_mutations,
    mutate,
    mutation_class,
    mutation_classes,
)
from reflexo.polygon import Polygon, apply_unimodular, canonical_form, polar_dual


class TestMutationData:
    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            MutationData((0, 1), (0, 1))

    def test_primitivity_enforced(self):
        with pytest.raises(ValueError):
            MutationData((0, 2), (1, 0))

    def test_equal_data_share_a_hash(self):
        # [TRIVIAL] a datum is its pair (v, w): equal pairs, as tuples or
        # lists, give equal data with equal hashes; another w or a bare
        # pair does not
        a, b = MutationData((0, 1), (1, 0)), MutationData([0, 1], [1, 0])
        assert a == b and hash(a) == hash(b)
        assert a != MutationData((0, 1), (-1, 0))
        assert a != ((0, 1), (1, 0))


class TestMutate:
    def test_p4c_to_p4a(self):
        # [PAPER] mutation of P4c with v=(0,-1), H=conv(0,(1,0)) gives P4a
        Q = mutate(get("4c"), MutationData((0, -1), (1, 0)))
        assert canonical_form(Q) == canonical_form(get("4a"))

    def test_p3_stays_in_class(self):
        # [PAPER] P3 is alone in its mutation class
        for _, Q in all_mutations(get("3")):
            assert canonical_form(Q) == canonical_form(get("3"))

    def test_volume_duality_preserved(self, catalog):
        # [TRIVIAL] every admissible mutation lands on a reflexive polygon,
        # so Vol(Q) + Vol(Q polar) = 12
        for P in catalog.values():
            for _, Q in all_mutations(P):
                assert Q.volume() + polar_dual(Q).volume() == 12

    def test_not_mutable_errors(self):
        # [DERIVED] P4a has no length-2 edge: no slice decomposes by H
        with pytest.raises(ValueError):
            mutate(get("4a"), MutationData((0, -1), (1, 0)))

    def test_wrong_normal_errors(self):
        # [DERIVED] (1,1) is not an edge normal of P4c
        with pytest.raises(ValueError):
            mutate(get("4c"), MutationData((1, 1), (1, -1)))

    def test_height_below_minus_one_errors(self):
        # [DERIVED] v = (1, -1) puts vertex (-1, 1) of P5a at height -2 and
        # two points at height -1: the min-height guard refuses it before
        # that vertex could be sorted into a slice
        with pytest.raises(ValueError, match="inner edge normal"):
            mutate(get("5a"), MutationData((1, -1), (1, 1)))

    def test_non_reflexive_errors(self):
        # [TRIVIAL] the translate of 4c has the origin on its boundary
        shifted = Polygon([(x + 1, y) for x, y in get("4c").vertices])
        assert not shifted.is_reflexive()
        with pytest.raises(ValueError, match="reflexive"):
            mutate(shifted, MutationData((0, -1), (1, 0)))

    def test_single_point_bottom_slice_errors(self):
        # [DERIVED] v = (1, 0) puts only (-1, -1) of P3 at height -1: no
        # segment to peel H off
        with pytest.raises(ValueError):
            mutate(get("3"), MutationData((1, 0), (0, 1)))


class TestAllMutations:
    def test_4b_never_reaches_4a(self):
        # [PAPER] P4a is not mutation equivalent to P4b
        target = canonical_form(get("4a"))
        for _, Q in all_mutations(get("4b")):
            assert canonical_form(Q) != target

    def test_4c_reaches_4a(self):
        # [PAPER]
        target = canonical_form(get("4a"))
        assert any(
            canonical_form(Q) == target for _, Q in all_mutations(get("4c"))
        )

    @pytest.mark.parametrize("name", NAMES)
    def test_no_datum_repeats(self, name):
        # [DERIVED] distinct edges have distinct inner normals, and each
        # normal is crossed with its two opposite generators of v-perp (3
        # and 9 admit no mutation)
        data = [d for d, _ in all_mutations(get(name))]
        assert len(set(data)) == len(data)

    def test_non_reflexive_has_none(self):
        # [TRIVIAL] mutations are taken of reflexive polygons only
        shifted = Polygon([(x + 1, y) for x, y in get("4c").vertices])
        assert all_mutations(shifted) == []

    def test_results_reflexive(self, catalog):
        # [TRIVIAL] mutations of reflexive polygons are reflexive
        for P in catalog.values():
            for _, Q in all_mutations(P):
                assert Q.is_reflexive()

    def test_reversibility(self, catalog):
        # [DERIVED] mutating the (uncanonicalized) result with (-v, w)
        # returns P's class
        for P in catalog.values():
            for e in P.edges():
                v = e.inner_normal
                for w in ((-v[1], v[0]), (v[1], -v[0])):
                    try:
                        Q = mutate(P, MutationData(v, w))
                    except ValueError:
                        continue
                    back = mutate(Q, MutationData((-v[0], -v[1]), w))
                    assert canonical_form(back) == canonical_form(P)

    def test_gl2z_invariance(self, catalog):
        # [DERIVED] the mutants of U P are those of P, up to GL2(Z): the
        # same sorted names, for seeded unimodular U
        rng = random.Random(3)
        for P in catalog.values():
            names = sorted(name_of(Q) for _, Q in all_mutations(P))
            for _ in range(4):
                UP = apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
                assert sorted(name_of(Q) for _, Q in all_mutations(UP)) == names

    def test_mutants_as_mutate_gives_them(self, catalog):
        # [DERIVED] each mutant is mutate(P, data) with the same vertex
        # list, not canonicalised, on the 16 and seeded GL2(Z) images
        rng = random.Random(6)
        polys = list(catalog.values()) + [
            apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
            for P in catalog.values() for _ in range(3)
        ]
        count = 0
        for P in polys:
            for data, Q in all_mutations(P):
                assert Q.vertices == mutate(P, data).vertices
                count += 1
        assert count == 4 * 76

    def test_no_box_scan_or_edges(self, catalog, monkeypatch):
        # [DERIVED] mutate, the slicing in _slice_mutants and canonical_form
        # read P's lattice points off its vertices: over all_mutations of
        # the 16, and mutate on each of their data, they call neither
        # Polygon.lattice_points nor Polygon.edges
        depth, entered, calls = [0], [0], []

        def scoped(f):
            def wrapper(*args):
                depth[0] += 1
                entered[0] += 1
                try:
                    return f(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        def counted(name):
            f = getattr(Polygon, name)

            def wrapper(*args):
                if depth[0]:
                    calls.append(name)
                return f(*args)
            return wrapper

        for name in ("lattice_points", "edges"):
            monkeypatch.setattr(Polygon, name, counted(name))
        for name in ("mutate", "_slice_mutants", "canonical_form"):
            monkeypatch.setattr(mutation, name, scoped(getattr(mutation, name)))
        data = [(P, d) for P in catalog.values() for d, _ in all_mutations(P)]
        assert data
        for P, d in data:
            mutation.mutate(P, d)
        assert entered[0] > 0
        assert calls == []


class TestMutationClasses:
    def test_partition(self):
        # [PAPER] exactly the 8 classes grouping the summary table rows
        cat = load_catalog()
        order = [cat[n] for n in NAMES]
        classes = [
            sorted(NAMES[i] for i in cls)
            for cls in mutation_classes(order)
        ]
        assert sorted(map(tuple, classes)) == sorted([
            ("3",), ("4a", "4c"), ("4b",), ("5a", "5b"),
            ("6a", "6b", "6c", "6d"), ("7a", "7b"),
            ("8a", "8b", "8c"), ("9",),
        ])

    def test_one_component_search_matches_union_find(self, catalog,
                                                     fresh_class):
        # [DERIVED] the search from one polygon finds exactly its component
        # of the undirected mutation graph on the catalog, built here by
        # union-find over every catalog polygon's mutations
        order = [catalog[n] for n in NAMES]
        keys = [tuple(canonical_form(P).vertices) for P in order]
        parent = list(range(len(order)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, P in enumerate(order):
            for _, Q in all_mutations(P):
                parent[find(keys.index(tuple(canonical_form(Q).vertices)))] = \
                    find(i)
        classes = mutation_classes(order)
        for i, P in enumerate(order):
            found = {tuple(Q.vertices) for Q in fresh_class(P)}
            expected = {keys[j] for j in range(len(order))
                        if find(j) == find(i)}
            assert found == expected
            assert {keys[j] for j in next(c for c in classes if i in c)} \
                == expected

    def test_gl2z_invariance(self, catalog, fresh_class):
        # [DERIVED] the search from U P names the same catalog classes as
        # the search from P, for seeded unimodular U
        rng = random.Random(4)
        for P in catalog.values():
            names = sorted(name_of(Q) for Q in fresh_class(P))
            for _ in range(3):
                UP = apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
                assert sorted(name_of(Q) for Q in fresh_class(UP)) == names

    def test_class_outside_the_list_rejected(self):
        # [DERIVED] 4a mutates to 4c, which the one-polygon list lacks
        with pytest.raises(ValueError, match="mutation left the catalog"):
            mutation_classes([get("4a")])

    def test_class_members_are_canonical(self):
        members = mutation_class(get("6a"))
        assert members[0] == canonical_form(get("6a"))
        assert all(canonical_form(Q).vertices == Q.vertices for Q in members)


class TestClassMemo:
    def test_members_answered_without_search(self, fresh_class,
                                             monkeypatch):
        # [DERIVED] the search of the 6 class canonicalises each of its 4
        # members once; afterwards each member, in catalog or other
        # coordinates, gets the searched component with its own canonical
        # form first and no further all_mutations or canonical_form call
        forms = []
        form = mutation.canonical_form
        monkeypatch.setattr(mutation, "canonical_form",
                            lambda P: forms.append(P) or form(P))
        component = {tuple(Q.vertices) for Q in fresh_class(get("6a"))}
        assert len(forms) == len(component) == 4
        forms.clear()
        calls = []
        expand = mutation.all_mutations
        monkeypatch.setattr(mutation, "all_mutations",
                            lambda P: calls.append(P) or expand(P))
        rng = random.Random(5)
        for name in ("6a", "6b", "6c", "6d"):
            P = get(name)
            UP = apply_unimodular(random_unimodular(rng, GL2Z_GENS), P)
            for Q in (P, UP):
                members = mutation_class(Q)
                assert members[0].vertices == canonical_form(Q).vertices, name
                assert len(members) == len(component), name
                assert {tuple(R.vertices) for R in members} == component
        assert calls == forms == []

    def test_non_reflexive_is_its_own_class(self, fresh_class):
        # [DERIVED] the fan key tells classes apart only among reflexive
        # polygons: the triangle has 4c's key by the boundary-point
        # definition and the translate of 4c by the vertex one, and each is
        # still a class of its own once 4c's class is searched, with
        # nothing added to the memo
        fresh_class(get("4c"))
        memo = dict(mutation._components)
        triangle = Polygon([(-3, -3), (-1, -1), (-3, -2)])
        shifted = Polygon([(x + 5, y) for x, y in get("4c").vertices])
        for P in (triangle, shifted):
            assert [Q.vertices for Q in mutation_class(P)] == \
                [canonical_form(P).vertices]
        assert mutation_classes([get("4c"), get("4a"), triangle, shifted]) \
            == [[0, 1], [2], [3]]
        assert mutation._components == memo

    def test_returned_list_is_the_callers(self, fresh_class):
        # [TRIVIAL] changing a returned list changes no later answer
        members = fresh_class(get("8b"))
        names = [name_of(Q) for Q in members]
        members.reverse()
        members.append(get("3"))
        mutation_class(get("8b")).clear()
        assert [name_of(Q) for Q in mutation_class(get("8b"))] == names


class TestTropMap:
    def test_identity_on_half_space(self):
        # [PAPER] identity on <., w> >= 0
        data = MutationData((0, -1), (1, 0))
        assert trop_map((2, 5), data) == (2, 5)
        assert trop_map((0, -7), data) == (0, -7)

    def test_fixes_v(self):
        # [TRIVIAL] <v, w> = 0
        data = MutationData((0, -1), (1, 0))
        assert trop_map((0, -1), data) == (0, -1)

    def test_folds_negative_side(self):
        # [DERIVED] m = (-1, 0): <m, w> = -1, image m + v
        data = MutationData((0, -1), (1, 0))
        assert trop_map((-1, 0), data) == (-1, -1)

    def test_maps_resolved_fans(self):
        # [PAPER] for the P4c -> P4a mutation, trop carries the rays through
        # the boundary lattice points of P polar bijectively onto those of
        # the mutated polygon's polar (the resolved fans of both surfaces)
        from math import gcd

        def prim(u):
            g = gcd(abs(u[0]), abs(u[1]))
            return (u[0] // g, u[1] // g)

        data = MutationData((0, -1), (1, 0))
        P = get("4c")
        Q = mutate(P, data)
        src = {prim(p) for p in polar_dual(P).boundary_lattice_points()}
        dst = {prim(p) for p in polar_dual(Q).boundary_lattice_points()}
        assert {prim(trop_map(m, data)) for m in src} == dst
