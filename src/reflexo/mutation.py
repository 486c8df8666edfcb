"""Combinatorial mutations of reflexive polygons.

A mutation datum is an edge normal v together with a primitive segment
H = conv(0, w), w in v-perp.  The mutated polygon is
P† = conv(R_{-1} ∪ P_0 ∪ (P_1 + H)) where P_d is the height-d slice of P
with respect to v and P_{-1} = R_{-1} + H as a Minkowski sum of segments.
The 16 reflexive classes fall into 8 mutation-equivalence classes.

Each mutant's vertex list is read off its three slices with no hull: every
point of its generating set lies on one of the lines <v, .> = -1, 0, 1, so
its vertices are the ends of the bottom and top lines and those ends of the
middle line that stick out past the chords joining them (_slice_mutants).
"""

from __future__ import annotations

from math import gcd as int_gcd

from .polygon import Point, Polygon, _fan_key, canonical_form


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
    P_{-1} less its end e furthest along w, with ends e - w and the other.

    Each vertex list is read off the slices' ends by the three-line rule,
    with no hull.  Every generating point lies on one of the lines
    <v, .> = -1, 0, 1: R_{-1}, P_0 with the origin, and P_1 ∪ (P_1 + w),
    as <v, w> = 0.  The map p -> (s, h) = (cross(p, v), <v, p>) has
    determinant |v|^2 > 0, so it keeps orientation, and in (s, h) the three
    lines are horizontal.  A point inside a line's s-range lies on a chord
    and is no vertex, so the counterclockwise vertices are the bottom
    line's left and right ends (one point when R_{-1} is one), the middle
    line's right end m, the top line's right and left ends, and the middle
    line's left end.  m is a vertex only when it lies strictly right of
    the chord from the bottom's right end b to the top's right end t,
    which crosses h = 0 at s = (s(b) + s(t)) / 2: 2 s(m) > s(b) + s(t).
    On equality m lies on that edge and is no vertex; the left end is
    tested by the mirror inequality.  The top line's two ends are
    distinct, as P_1 is not empty (the origin is interior and every
    vertex has height at most 1) and w != 0.  The list is rotated to start
    at its least vertex, as convex_hull returns it."""
    vx, vy = v
    bottom, mid, top = slices = ([], [], [])
    for p in points:
        slices[vx * p[0] + vy * p[1] + 1].append((p[0] * vy - p[1] * vx, p))
    if len(bottom) < 2:
        raise ValueError("not mutable with this H: P_{-1} is a point")
    (sb0, b0), (sb1, b1) = min(bottom), max(bottom)
    (sm0, m0), (sm1, m1) = min(mid), max(mid)
    (st0, t0), (st1, t1) = min(top), max(top)
    out = []
    for w in ws:
        sw = w[0] * vy - w[1] * vx  # s(w) = ±|v|^2
        if sw > 0:  # R_{-1} loses its right end, P_1 + w widens the right
            lo, hi = (sb0, b0), (sb1 - sw, (b1[0] - w[0], b1[1] - w[1]))
            left, right = (st0, t0), (st1 + sw, (t1[0] + w[0], t1[1] + w[1]))
        else:
            lo, hi = (sb0 - sw, (b0[0] - w[0], b0[1] - w[1])), (sb1, b1)
            left, right = (st0 + sw, (t0[0] + w[0], t0[1] + w[1])), (st1, t1)
        hull = [lo[1]] if lo[0] == hi[0] else [lo[1], hi[1]]
        if 2 * sm1 > hi[0] + right[0]:
            hull.append(m1)
        hull += [right[1], left[1]]
        if 2 * sm0 < lo[0] + left[0]:
            hull.append(m0)
        i = hull.index(min(hull))
        Q = Polygon._from_ints(hull[i:] + hull[:i])
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
    """Every admissible mutation of P, each mutant as mutate(P, data) gives
    it: each edge normal v crossed with the two primitive generators of
    v-perp.  Distinct edges have distinct inner normals, so no datum
    repeats.  P is checked and its boundary points listed once, and P is
    sliced once per normal; a normal v is admissible when no vertex lies
    above height 1, and its edge gives P_{-1} at least two points."""
    if not P.is_reflexive():
        return []
    points = P.boundary_lattice_points() + [(0, 0)]
    out = []
    for e in P.edges():
        v = e.inner_normal
        if max(_height(v, p) for p in P.vertices) > 1:
            continue
        ws = ((-v[1], v[0]), (v[1], -v[0]))
        out += zip((MutationData(v, w) for w in ws), _slice_mutants(points, v, ws))
    return out


# Fan key -> the component of each member of a finished search, as fan key
# -> canonical form in the order found.  Filled one component at a time by
# _component; an entry never changes, as it depends only on GL2(Z) classes.
_components: dict[tuple, dict[tuple, Polygon]] = {}


def _component(P: Polygon) -> tuple[tuple, dict[tuple, Polygon]]:
    """P's key and its component of the mutation graph as key -> canonical
    form.  A reflexive P is keyed by fan key; the first call for a component
    searches it, expanding each member once through all_mutations and
    canonicalising it when first found, and a later call for any member, in
    any coordinates, costs one fan key.  Any other P, whose fan key is no
    invariant, is a component alone, keyed by its canonical vertex tuple."""
    if not P.is_reflexive():
        Q = canonical_form(P)
        return tuple(Q.vertices), {tuple(Q.vertices): Q}
    key = _fan_key(P)
    component = _components.get(key)
    if component is None:
        component = {key: canonical_form(P)}
        todo = [P]
        while todo:
            for _, Q in all_mutations(todo.pop()):
                k = _fan_key(Q)
                if k not in component:
                    component[k] = canonical_form(Q)
                    todo.append(component[k])
        _components.update(dict.fromkeys(component, component))
    return key, component


def mutation_class(P: Polygon) -> list[Polygon]:
    """Canonical forms of the polygons in P's component of the mutation
    graph (see _component), P's own first; [canonical_form(P)] for a P that
    is not reflexive.  The list returned is the caller's own."""
    key, component = _component(P)
    return [component[key]] + [Q for k, Q in component.items() if k != key]


def mutation_classes(catalog: list[Polygon]) -> list[list[int]]:
    """Connected components of the mutation graph on the catalog.

    Returns a partition of catalog indices, each class sorted, classes sorted
    by first element.
    """
    found = [_component(P) for P in catalog]
    keys = {key for key, _ in found}
    classes: dict[tuple, list[int]] = {}
    for i, (_, component) in enumerate(found):
        if not component.keys() <= keys:
            raise ValueError("mutation left the catalog")
        # a component's first key names it: the key of its search's start
        classes.setdefault(next(iter(component)), []).append(i)
    return list(classes.values())
