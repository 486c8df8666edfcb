"""Combinatorial mutations of reflexive polygons.

A mutation datum is an edge normal v together with a primitive segment
H = conv(0, w), w in v-perp.  The mutated polygon is
P† = conv(R_{-1} ∪ P_0 ∪ (P_1 + H)) where P_d is the height-d slice of P
with respect to v and P_{-1} = R_{-1} + H as a Minkowski sum of segments.
The 16 reflexive classes fall into 8 mutation-equivalence classes.
"""

from __future__ import annotations

from math import gcd as int_gcd

from .polygon import Point, Polygon, canonical_form, convex_hull


class MutationData:
    """Edge normal v and primitive w with <v, w> = 0; H = conv(0, w)."""

    __slots__ = ("v", "w")

    def __init__(self, v: Point, w: Point):
        v, w = tuple(v), tuple(w)
        for name, u in (("v", v), ("w", w)):
            if u == (0, 0) or int_gcd(abs(u[0]), abs(u[1])) != 1:
                raise ValueError(f"{name} must be primitive")
        if v[0] * w[0] + v[1] * w[1] != 0:
            raise ValueError("w must lie in the orthogonal of v")
        self.v = v
        self.w = w

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MutationData)
            and self.v == other.v
            and self.w == other.w
        )

    def __hash__(self):
        return hash((self.v, self.w))

    def __repr__(self):
        return f"MutationData(v={self.v}, w={self.w})"


def _height(v: Point, p: Point) -> int:
    return v[0] * p[0] + v[1] * p[1]


def _slice_mutants(points: list[Point], v: Point, ws) -> list[Polygon]:
    """The mutants conv(R_{-1} ∪ P_0 ∪ (P_1 + H)), one per w in ws, of a
    reflexive P with no vertex above height 1 under v, by the slice rule:
    `points`, P's boundary lattice points and the origin, fall by height
    <v, .> into P_{-1}, P_0 and P_1 in one pass.  P_{-1} lies on the line
    <v, .> = -1, of primitive direction ±w, so R_{-1} = P_{-1} - H is
    P_{-1} minus its end furthest along w."""
    bottom, mid, top = slices = ([], [], [])
    for p in points:
        slices[_height(v, p) + 1].append(p)
    if len(bottom) < 2:
        raise ValueError("not mutable with this H: P_{-1} is a point")
    out = []
    for w in ws:
        end = max(bottom, key=lambda p: _height(w, p))
        shifted_top = [(p[0] + w[0], p[1] + w[1]) for p in top]
        # the hull holds the origin and points at heights -1 and 1: a polygon
        hull = convex_hull([p for p in bottom if p != end] + mid + top + shifted_top)
        Q = Polygon._from_ccw(hull)
        if not Q.is_reflexive():  # pragma: no cover - Definition guarantees this
            raise ValueError("mutation produced a non-reflexive polygon")
        out.append(Q)
    return out


def mutate(P: Polygon, data: MutationData) -> Polygon:
    """The combinatorial mutation conv(R_{-1} ∪ P_0 ∪ (P_1 + H)) of a
    reflexive P, by the slice rule of _slice_mutants."""
    if not P.is_reflexive():
        raise ValueError("mutation is defined for reflexive polygons")
    v = data.v
    heights = [_height(v, p) for p in P.vertices]
    if max(heights) > 1:
        raise ValueError("slice above height 1 is nonempty")
    if min(heights) != -1:  # a height -2 point would land in slices[-1], P_1
        raise ValueError("v is not an inner edge normal of P")
    points = P.boundary_lattice_points() + [(0, 0)]
    return _slice_mutants(points, v, [data.w])[0]


def all_mutations(P: Polygon) -> list[tuple[MutationData, Polygon]]:
    """Every admissible mutation of P: each edge normal v crossed with the two
    primitive generators of v-perp; results are canonicalized.  Distinct
    edges have distinct inner normals, so no datum repeats.  P is checked
    and its boundary points listed once, and P is sliced once per normal;
    a normal v is admissible when no vertex lies above height 1, and its
    edge gives P_{-1} at least two points."""
    if not P.is_reflexive():
        return []
    points = P.boundary_lattice_points() + [(0, 0)]
    out = []
    for e in P.edges():
        v = e.inner_normal
        if max(_height(v, p) for p in P.vertices) > 1:
            continue
        ws = ((-v[1], v[0]), (v[1], -v[0]))
        for w, Q in zip(ws, _slice_mutants(points, v, ws)):
            out.append((MutationData(v, w), canonical_form(Q)))
    return out


# Canonical vertex tuple -> the component of every member of a finished
# search, in the order that search found it.  Filled one component at a
# time by mutation_class, never up front; an entry never changes, since a
# component depends only on the GL2(Z) class of its members.
_components: dict[tuple, list[Polygon]] = {}


def mutation_class(P: Polygon) -> list[Polygon]:
    """Canonical forms of the polygons in P's component of the mutation
    graph, P's own first.  The first call for a component searches it,
    expanding each member once through all_mutations and recognising
    members by canonical vertex tuple; every later call for any of its
    members, in any coordinates, answers from the per-process memo with no
    search.  The list returned is the caller's own."""
    start = canonical_form(P)
    key = tuple(start.vertices)
    component = _components.get(key)
    if component is None:
        members = {key: start}
        todo = [P]
        while todo:
            for _, Q in all_mutations(todo.pop()):
                k = tuple(Q.vertices)
                if k not in members:
                    members[k] = Q
                    todo.append(Q)
        component = list(members.values())
        _components.update(dict.fromkeys(members, component))
    return [start] + [Q for Q in component if Q.vertices != start.vertices]


def mutation_classes(catalog: list[Polygon]) -> list[list[int]]:
    """Connected components of the mutation graph on the catalog.

    Returns a partition of catalog indices, each class sorted, classes sorted
    by first element.
    """
    keys = [tuple(canonical_form(P).vertices) for P in catalog]
    classes = []
    placed: set[int] = set()
    for i, P in enumerate(catalog):
        if i in placed:
            continue
        component = {tuple(Q.vertices) for Q in mutation_class(P)}
        if not component.issubset(keys):
            raise ValueError("mutation left the catalog")
        cls = [j for j, k in enumerate(keys) if k in component]
        placed.update(cls)
        classes.append(cls)
    return classes
