"""Lattice polygon geometry.

Polygons are stored as CCW-ordered integer vertex lists.  Reflexive means the
origin is the only interior lattice point; equivalently every edge lies at
lattice distance 1 from the origin (primitive inner normal evaluating to -1),
equivalently the polar dual is again a lattice polygon.

GL2(Z) canonical forms work by mapping unimodular ordered pairs (p, q) of
boundary lattice points onto the standard frame p -> e1, q -> e2; for a
reflexive polygon consecutive boundary lattice points always form such a
pair, so the candidate set is finite, GL2(Z)-equivariant, and exhaustive.
Every candidate of a frame (q, det), det = det(p, q) = ±1, starts at the
same x-coordinate, the frame's level, which depends on q and det alone; one
pass over the frames skips each frame whose level exceeds the x-coordinate
of the least candidate so far, since none of its candidates can be smaller.

The fan key, the cyclic sequence of cross(b_{i-1}, b_{i+1}) over boundary
points up to rotation and reversal, tells the classes of reflexive polygons
apart.  Names and mutation classes go by it, and the enumeration builds the
16 classes from the sequences that satisfy the number-12 identity, the
deficits 2 - a_i >= 0 summing to 12 - n over n boundary points.  It walks
them depth first from their largest deficit d_0, bounding each later
deficit by d_0 and by what the remaining ones can still make up, and
carries the points b_i down the walk to the prefixes of length n - 2.
Closure fixes the last two terms, so they are solved there, not walked; a
canonical form is computed only where a representative is returned.
"""

from __future__ import annotations

from math import gcd as int_gcd

from .algebra import _exact

Point = tuple[int, int]


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _primitive(v: Point) -> Point:
    g = int_gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def convex_hull(points) -> list[Point]:
    """Andrew monotone chain; returns CCW vertices, collinear points dropped.
    Accepts rational coordinates."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            x, y = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


class Edge:
    """Directed edge of a lattice polygon with its primitive inner normal."""

    __slots__ = ("tail", "head", "inner_normal", "lattice_length")

    def __init__(self, tail: Point, head: Point):
        self.tail = tail
        self.head = head
        d = _sub(head, tail)
        self.lattice_length = int_gcd(abs(d[0]), abs(d[1]))
        # CCW orientation: interior on the left, inner normal = rotate d by +90
        self.inner_normal = _primitive((-d[1], d[0]))

    def normal_value(self) -> int:
        """<inner_normal, tail> -- equals -(lattice distance from origin)."""
        n = self.inner_normal
        return n[0] * self.tail[0] + n[1] * self.tail[1]

    def lattice_points(self) -> list[Point]:
        """All lattice points on the edge, tail to head inclusive."""
        d = _sub(self.head, self.tail)
        step = (d[0] // self.lattice_length, d[1] // self.lattice_length)
        return [
            (self.tail[0] + i * step[0], self.tail[1] + i * step[1])
            for i in range(self.lattice_length + 1)
        ]

    def __repr__(self):
        return f"Edge({self.tail}->{self.head}, n={self.inner_normal})"


def _coordinate(c) -> int:
    """c as a lattice coordinate: TypeError on a float, ValueError on a
    non-integral rational, as in algebra._exact."""
    c = _exact(c)
    if c.__class__ is not int:
        raise ValueError(f"non-integral lattice coordinate {c}")
    return c


def _lattice_vertices(points) -> list[Point]:
    return [(_coordinate(x), _coordinate(y)) for x, y in points]


class Polygon:
    """Convex lattice polygon: the convex hull of the points it is given,
    stored as its CCW vertex list."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = convex_hull(_lattice_vertices(vertices))
        if len(vs) < 3:
            raise ValueError("polygon is degenerate")
        self.vertices = vs

    @classmethod
    def _from_ccw(cls, vertices) -> "Polygon":
        """The polygon whose CCW vertex list is `vertices`, taken as it is,
        with no hull: for package code that already holds such a list.  The
        coordinates are checked, as they may come from outside."""
        return cls._from_ints(_lattice_vertices(vertices))

    @classmethod
    def _from_ints(cls, vertices: list[Point]) -> "Polygon":
        """The polygon whose CCW vertex list is the list `vertices` of int
        pairs, kept as it is, with no hull and no check: for lists the
        package built itself from int coordinates."""
        P = cls.__new__(cls)
        P.vertices = vertices
        return P

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and set(self.vertices) == set(other.vertices)

    def __hash__(self):
        return hash(frozenset(self.vertices))

    def __repr__(self):
        return f"Polygon({self.vertices})"

    def edges(self) -> list[Edge]:
        n = len(self.vertices)
        return [Edge(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def volume(self) -> int:
        """Normalized volume: 2 x Euclidean area (shoelace), an integer."""
        v = self.vertices
        n = len(v)
        s = sum(_cross(v[i], v[(i + 1) % n]) for i in range(n))
        if s <= 0:
            raise ValueError("degenerate or mis-oriented polygon")
        return s

    def is_reflexive(self) -> bool:
        """Every edge p -> q lies at lattice distance 1 from the origin:
        <primitive inner normal, p> = -cross(p, q) / gcd(q - p) is -1."""
        vs = self.vertices
        return all(
            px * qy - py * qx == int_gcd(qx - px, qy - py)
            for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1])
        )

    def boundary_lattice_points(self) -> list[Point]:
        """Boundary lattice points in CCW cyclic order, starting at vertex 0."""
        vs = self.vertices
        out = []
        for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
            g = int_gcd(qx - px, qy - py)
            if g == 1:
                out.append((px, py))
                continue
            dx, dy = (qx - px) // g, (qy - py) // g
            out += [(px + i * dx, py + i * dy) for i in range(g)]
        return out

    def lattice_points(self, m: int = 1) -> list[Point]:
        """All lattice points of the dilate mP (m >= 0; the polygon itself
        by default), in lexicographic order."""
        if m < 0:
            raise ValueError("m must be nonnegative")
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        # mP = {u : <n, u> >= m b} over the edges' inner normals n and
        # bounds b
        halfplanes = [
            (e.inner_normal[0], e.inner_normal[1], m * e.normal_value())
            for e in self.edges()
        ]
        return [
            (x, y)
            for x in range(m * min(xs), m * max(xs) + 1)
            for y in range(m * min(ys), m * max(ys) + 1)
            if all(a * x + b * y >= c for a, b, c in halfplanes)
        ]


def lattice_point_count(P: Polygon, m: int) -> int:
    """Ehrhart count #(mP ∩ N) for reflexive P."""
    if not P.is_reflexive():
        raise ValueError("lattice_point_count expects a reflexive polygon")
    return len(P.lattice_points(m))


def polar_dual(P: Polygon) -> Polygon:
    """Polar dual P° = {u : <u, v> >= -1 for all v in P}.

    For reflexive P the vertices of P° are exactly the primitive inner edge
    normals of P (in CCW edge order).
    """
    if not P.is_reflexive():
        raise ValueError("polar is not a lattice polygon (P not reflexive)")
    return Polygon._from_ints([e.inner_normal for e in P.edges()])


# ---------------------------------------------------------------------------
# GL2(Z) canonical form
# ---------------------------------------------------------------------------


def _unimodular(U) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, det) for U = ((a,b),(c,d)) in GL2(Z), the entries as
    ints: each is checked by _coordinate first, then |det| = 1 is."""
    (a, b), (c, d) = ((_coordinate(x) for x in row) for row in U)
    det = a * d - b * c
    if abs(det) != 1:
        raise ValueError("matrix not unimodular")
    return a, b, c, d, det


def apply_unimodular(U, P: Polygon) -> Polygon:
    """Image of P under the matrix U = ((a,b),(c,d)) acting by v -> U v."""
    a, b, c, d, det = _unimodular(U)
    vs = [(a * x + b * y, c * x + d * y) for (x, y) in P.vertices]
    if det < 0:
        vs.reverse()
    return Polygon._from_ints(vs)


def canonical_form(P: Polygon) -> Polygon:
    """Unique GL2(Z)-orbit representative.

    Candidate maps send each ordered unimodular pair (p, q) of boundary
    lattice points to the standard basis; this candidate set is equivariant
    (V maps boundary pairs to boundary pairs bijectively), so the
    lexicographically least candidate vertex tuple is a true normal form.
    Each candidate is the image of P's CCW vertex list, reversed when the map
    reverses orientation and rotated to start at its least vertex, which is
    its least rotation because the vertices are distinct.

    With det = cross(p, q) = ±1 the map is v -> det (cross(v, q), cross(p, v)),
    so every candidate of the frame (q, det) starts at x = min det cross(v, q)
    over P's vertices v: a level fixed by the frame alone.  One pass over the
    frames keeps the least candidate so far and skips a frame whose level is
    greater than that candidate's x, since each of its candidates starts at
    a larger x.  The skip is strict: a frame at the same level may still hold
    a smaller candidate, and a later frame of lower level replaces the best.
    """
    bpts = P.boundary_lattice_points()
    vs = P.vertices
    best = None
    for qx, qy in bpts:
        h = [x * qy - y * qx for x, y in vs]  # cross(v, q)
        for level, c, d, det in ((min(h), qx, qy, 1), (-max(h), -qx, -qy, -1)):
            if best is not None and level > best[0][0]:
                continue
            # U with U p = e1, U q = e2 is the inverse of [p q]; (c, d) = det q
            for a, b in bpts:
                if a * d - b * c != 1:
                    continue
                img = [(d * x - c * y, det * (a * y - b * x)) for x, y in vs]
                if det < 0:
                    img.reverse()
                i = img.index(min(img))
                cand = tuple(img[i:] + img[:i])
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise ValueError(
            "no unimodular boundary pair; canonical form undefined for this polygon"
        )
    return Polygon._from_ints(list(best))


# ---------------------------------------------------------------------------
# fan sequences and the enumeration of reflexive polygons
# ---------------------------------------------------------------------------


def _fan_sequence(P: Polygon) -> list[int]:
    """a_i = cross(b_{i-1}, b_{i+1}) over the CCW boundary lattice points b_i
    of a reflexive polygon P, from vertex 0.  With primitive steps d_in into
    and d_out out of b_i, cross(b_i, d) = 1 gives a_i = 2 - cross(d_in,
    d_out) at a vertex, and 2 inside an edge."""
    vs = P.vertices
    steps = []
    for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
        g = int_gcd(qx - px, qy - py)
        steps.append(((qx - px) // g, (qy - py) // g, g))
    a = []
    for (ix, iy, _), (ox, oy, g) in zip(steps[-1:] + steps, steps):
        a += [2 - ix * oy + iy * ox] + [2] * (g - 1)
    return a


def _dihedral_min(a: list[int]) -> tuple:
    """The least rotation or reversal of the cyclic sequence a; it starts at
    min(a), so only those are compared."""
    m = min(a)
    return tuple(min([s[i:] + s[:i] for s in (a, a[::-1])
                      for i in range(len(a)) if s[i] == m]))


def _fan_key(P: Polygon) -> tuple:
    """Complete GL2(Z) invariant of a reflexive polygon: the least rotation
    or reversal of its fan sequence (Oda 1988).  Consecutive boundary points
    form a lattice basis, so b_{i+1} = a_i b_i - b_{i-1}, and the map sending
    b_0, b_1 to e1, e2 fixes all later images from (a_i) alone.  A rotation
    is a change of start, a reversal the image under a det -1 map."""
    return _dihedral_min(_fan_sequence(P))


def _closing_pair(a0: int, d0: int, left: int, p: Point, q: Point):
    """(a_{n-2}, a_{n-1}) that close the prefix a_0, ..., a_{n-3} whose last
    two points are p = b_{n-3} and q = b_{n-2}, or None.  Closure, b_n = e1
    and b_{n+1} = a0 b_n - b_{n-1} = e2, fixes b_{n-1} = (a0, -1), so
    b_n = a_{n-1} b_{n-1} - q = e1 reads q = (a0 a_{n-1} - 1, -a_{n-1}).
    Then t = p + b_{n-1} has cross(t, q) = cross(p, q) - 1 = 0, so
    b_{n-1} = a_{n-2} q - p with a_{n-2} = cross(p, t) = -p_x - a0 p_y.
    The pair is kept when its deficits lie in [0, d0] and sum to `left`,
    the deficit still to place."""
    y = -q[1]
    if y * a0 - q[0] != 1:
        return None
    x = -p[0] - a0 * p[1]
    d, e = 2 - x, 2 - y
    if d + e == left and 0 <= d <= d0 and 0 <= e <= d0:
        return x, y
    return None


def enumerate_reflexive(bound: int = 3) -> list[Polygon]:
    """One canonical representative of each of the 16 GL2(Z) classes of
    reflexive polygons, sorted by (volume, vertex tuple).  Every class meets
    [-bound, bound]^2 for bound >= 3, so each such bound gives the same 16;
    a smaller one raises ValueError.

    A class is its fan sequence (a_i) over n boundary points (_fan_key),
    whose deficits d_i = 2 - a_i >= 0 sum to 12 - n, n = 3..9.  One
    depth-first walk builds the sequences that start at their largest
    deficit.  For each n it fixes d_0 in [ceil((12 - n)/n), 12 - n], since
    n deficits of at most d_0 sum to 12 - n, and picks each later d_i in
    [max(0, left - d_0 r), min(d_0, left)], where `left` is 12 - n minus
    the deficits so far and r the number still to pick after d_i: these
    are exactly the values from which r deficits in [0, d_0] can make up
    the rest.  Each step carries b_{i+1} = a_i b_i - b_{i-1} from b_0 = e1,
    b_1 = e2, so sequences with a common prefix share its steps.  The walk
    stops at the prefixes a_0, ..., a_{n-3}, each reached once, and solves
    for the last two terms instead of trying each: a sequence closes when
    b_n = e1 and a_0 b_n - b_{n-1} = e2, and _closing_pair shows that this
    fixes a_{n-2} and a_{n-1} by b_{n-3} and b_{n-2}.  It keeps the pair
    when both deficits lie in [0, d_0] and sum to `left`, which are the
    bounds the walk would have picked them in, so the solve finds each
    closed sequence that the walk to the leaves finds, in the same order,
    and no other.  For a kept sequence the points b_i are rebuilt from
    (a_i), and one polygon per key, with CCW vertices the b_i where
    a_i != 2, is canonicalised.

    Soundness: the recursion keeps cross(b_i, b_{i+1}) = 1, and the turn at
    b_i is cross(b_i - b_{i-1}, b_{i+1} - b_i) = 2 - a_i >= 0, so a closed
    sequence is a convex loop of unimodular triangles 0 b_i b_{i+1}.  For a
    closed loop of lattice bases sum(3 - a_i) is 12 times its winding
    number, and here it is 12: the loop goes around 0 once, and bounds a
    reflexive polygon whose boundary lattice points are exactly the b_i.
    Completeness: every reflexive polygon has d_i >= 0 by convexity and
    sum(d) = Vol(P polar) = 12 - n (Poonen-Rodriguez-Villegas 2000,
    Lattice polygons and the number 12); its at least 3 vertices each have
    d_i >= 1, so n <= 9.  Some rotation of (a_i) starts at its minimum,
    i.e. at its largest deficit; its prefix of length n - 2 is walked, and
    its last two terms are the pair solved there.
    """
    if bound < 3:
        raise ValueError("bound must be >= 3")
    found: dict[tuple, Polygon] = {}
    a: list[int] = []  # a_0, ..., a_{i-1} of the current prefix

    def walk(d0: int, left: int, rest: int, p: Point, q: Point) -> None:
        # extend the prefix ending b_{i-1} = p, b_i = q by a_i = 2 - d_i,
        # with `rest` deficits after d_i; at rest == 1 solve the last two
        if rest == 1:
            pair = _closing_pair(2 - d0, d0, left, p, q)
            if pair is not None:
                seq = a + list(pair)
                key = _dihedral_min(seq)
                if key not in found:
                    b = [(1, 0), (0, 1)]
                    for x in seq[1:-1]:
                        (px, py), (qx, qy) = b[-2], b[-1]
                        b.append((x * qx - px, x * qy - py))
                    found[key] = canonical_form(Polygon._from_ints(
                        [pt for pt, x in zip(b, seq) if x != 2]))
            return
        lo = left - d0 * rest
        if lo < 0:
            lo = 0
        hi = d0 if d0 < left else left
        (px, py), (qx, qy) = p, q
        for d in range(lo, hi + 1):
            x = 2 - d
            a.append(x)
            walk(d0, left - d, rest - 1, q, (x * qx - px, x * qy - py))
            a.pop()

    for n in range(3, 10):
        for d0 in range(-(-(12 - n) // n), 13 - n):
            a[:] = [2 - d0]
            walk(d0, 12 - n - d0, n - 2, (1, 0), (0, 1))
    return sorted(found.values(), key=lambda P: (P.volume(), tuple(P.vertices)))
