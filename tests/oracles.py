"""Independent oracles the tests check the program against.

`bareiss_determinant` is a fraction-free determinant over Q.  With
`sylvester_matrix` it is the oracle for `resultant`; with `cartan_matrix`
it is the oracle for `KodairaType.det`, the determinant of the root lattice
of a fibre's non-identity components, built here from the explicit Dynkin
diagram.  `random_unimodular` draws the seeded GL2(Z) matrices of the
coordinate-change tests, from `GL2Z_GENS` or other generators.  `apply_operator` applies a Picard-Fuchs operator
to a series term by term, `trop_map` is the tropical map of a mutation on
the dual lattice, and `miranda_identities` with `find_torsion_components`
checks the torsion sections of a semistable configuration against
Miranda's identities, and `kernels_mod_p` is the column elimination of the
Picard-Fuchs fit mod p on plain lists, the reference for the packed one.
`gcd_poly` is the monic gcd over Q on the program's integer gcd, and
`squarefree_decomposition` is Yun's algorithm on it.  `int_content` and
`values_at_y` are the content of a coefficient list and the critical
values over one rational y taken through `UniPoly` and `Fraction` values,
and `euclid_over_quotient` with `inverse_mod` is the monic Euclid over
Q[y]/(q) on `UniPoly` residues: the references for the int-list paths of
the program.  `reference_fan_key` is the fan key of a reflexive polygon
read off its boundary lattice points, the reference for the program's key
read off the vertices, and `reference_section_positions` labels the
sections on the boundary walk of the canonical dual, the reference for the
program's labels read off the dual's edges in any coordinates.
`slice_hull_mutant` is a mutant's vertex list as the convex hull of its
generating set, the reference for the three-line rule of `_slice_mutants`.
`reference_closed_sequences` lists the closed fan sequences that start at
their minimum from every stars-and-bars composition, the reference for
the bounded walk of the enumeration, and `operator_singular_locus` reads
the singular points off a Picard-Fuchs operator's leading coefficient.
`row_walk` builds the powers of a packed polynomial row by row in y, for
any support: the independent series that the recurrence of
`period_coefficients` is checked against, and `torus_counts` counts the
points of the pencil's members on the torus mod p, which the series meets
in a congruence.  All are plain int and Fraction arithmetic on the
program's types.
"""

from fractions import Fraction
from itertools import combinations, count

from reflexo.algebra import (
    _MERSENNE_EXPONENTS,
    MPoly,
    UniPoly,
    ZeroDivisorError,
    _derivative,
    _div,
    _gcd_int,
    _sub,
    _trim,
    format_unipoly,
    resultant,
    squarefree_rational_roots,
)
from reflexo.period import DiffOperator, PowerSeries, _digit
from reflexo.polygon import canonical_form, convex_hull, polar_dual


def bareiss_determinant(rows: list[list]) -> Fraction:
    """Fraction-free Bareiss determinant over Q; 1 for the empty matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_matrix(a: list, b: list):
    """Sylvester matrix (rows of shifted coefficient lists, descending) for
    coefficient lists given ascending.  Entries as given (Fractions/MPoly)."""
    m, n = len(a) - 1, len(b) - 1
    rows = []
    ad = list(reversed(a))
    bd = list(reversed(b))
    for i in range(n):
        rows.append([_zero_like(a[0])] * i + ad + [_zero_like(a[0])] * (n - 1 - i))
    for i in range(m):
        rows.append([_zero_like(a[0])] * i + bd + [_zero_like(a[0])] * (m - 1 - i))
    return rows


def _zero_like(x):
    return MPoly() if isinstance(x, MPoly) else Fraction(0)


def _path(k: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(k - 1)]


def dynkin_diagram(kind: str, n: int | None = None
                   ) -> tuple[int, list[tuple[int, int]]]:
    """(nodes, edges) of the root lattice of the non-identity components of
    a Kodaira fibre: A_{n-1} for I_n, D_{n+4} for I_n*, A_1 for III, A_2 for
    IV, E6/E7/E8 for IV*/III*/II*, and no nodes for I_0, I_1 and II."""
    if kind == "I":
        k = max(n - 1, 0)
        return k, _path(k)
    if kind == "I*":
        k = n + 4  # D_k: a path of k - 1 nodes, the last node on node k - 3
        return k, _path(k - 1) + [(k - 3, k - 1)]
    if kind in ("II", "III", "IV"):
        k = {"II": 0, "III": 1, "IV": 2}[kind]
        return k, _path(k)
    # E_k: a path of k - 1 nodes, the last node on node 2
    k = {"IV*": 6, "III*": 7, "II*": 8}[kind]
    return k, _path(k - 1) + [(2, k - 1)]


def cartan_matrix(nodes: int, edges: list[tuple[int, int]]
                  ) -> list[list[Fraction]]:
    """2 on the diagonal, -1 for each edge of a simply laced diagram."""
    rows = [[Fraction(2 if i == j else 0) for j in range(nodes)]
            for i in range(nodes)]
    for i, j in edges:
        rows[i][j] -= 1
        rows[j][i] -= 1
    return rows


# generators of GL2(Z), a reflection included
GL2Z_GENS = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
             ((0, 1), (1, 0))]


def random_unimodular(rng, gens):
    """A product of one to six matrices drawn from gens."""
    U = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(gens)
        U = (
            (U[0][0] * g[0][0] + U[0][1] * g[1][0],
             U[0][0] * g[0][1] + U[0][1] * g[1][1]),
            (U[1][0] * g[0][0] + U[1][1] * g[1][0],
             U[1][0] * g[0][1] + U[1][1] * g[1][1]),
        )
    return U


def reference_fan_key(P) -> tuple:
    """The least rotation or reversal of the cyclic sequence
    a_i = cross(b_{i-1}, b_{i+1}) over the CCW boundary lattice points b_i
    of a reflexive polygon P, taken from the points themselves."""
    b = P.boundary_lattice_points()
    a = [px * ry - py * rx
         for (px, py), (rx, ry) in zip(b[-1:] + b, b[1:] + b[:1])]
    n = len(a)
    r = a[::-1] * 2
    a *= 2
    return tuple(min([a[i:i + n] for i in range(n)]
                     + [r[i:i + n] for i in range(n)]))


def reference_closed_sequences() -> list[tuple]:
    """Every fan sequence (a_0, ..., a_{n-1}) with a_0 = min(a) that closes
    after n steps of b_{i+1} = a_i b_i - b_{i-1} from b_0 = e1, b_1 = e2,
    from all 1969 compositions d_i = 2 - a_i >= 0 of 12 - n, n = 3..9:
    n - 1 bars in 11 slots part the 12 - n stars, and every composition is
    recursed in full."""
    out = []
    for n in range(3, 10):
        for bars in combinations(range(11), n - 1):
            cuts = (-1, *bars, 11)
            a = [3 + cuts[i] - cuts[i + 1] for i in range(n)]
            if a[0] != min(a):
                continue
            b = [(1, 0), (0, 1)]
            for ai in a[1:] + a[:1]:
                (px, py), (qx, qy) = b[-2], b[-1]
                b.append((ai * qx - px, ai * qy - py))
            if b[n:] == b[:2]:
                out.append(tuple(a))
    return out


def reference_section_positions(P) -> list[int]:
    """Section positions on the infinity fibre of a reflexive P: the CCW
    boundary walk of the dual of canonical_form(P), from the vertex whose
    gap sequence (lattice lengths of the edges, read from it) ends with the
    minimal gap, ties broken by the lexicographically greatest sequence."""
    Q = polar_dual(canonical_form(P))
    walk = Q.boundary_lattice_points()
    verts = set(Q.vertices)
    m = len(walk)
    vidx = [i for i, p in enumerate(walk) if p in verts]
    k = len(vidx)
    gaps = [(vidx[(j + 1) % k] - vidx[j]) % m for j in range(k)]
    best = None
    for j in range(k):
        seq = tuple(gaps[j:] + gaps[:j])
        if seq[-1] != min(gaps):
            continue
        if best is None or seq > best[0]:
            best = (seq, j)
    seq = best[0]
    positions = [0]
    for g in seq[:-1]:
        positions.append(positions[-1] + g)
    return positions


def slice_hull_mutant(P, v, w) -> list[tuple[int, int]]:
    """The vertex list of the mutant of a reflexive P by the datum (v, w):
    convex_hull of R_{-1}, which is P_{-1} less its end furthest along w,
    of P_0 with the origin, and of P_1 and P_1 + w, the slices of P's
    lattice points at heights <v, .> = -1, 0 and 1."""
    def height(u, p):
        return u[0] * p[0] + u[1] * p[1]

    points = P.boundary_lattice_points() + [(0, 0)]
    bottom = [p for p in points if height(v, p) == -1]
    end = max(bottom, key=lambda p: height(w, p))
    top = [p for p in points if height(v, p) == 1]
    return convex_hull(
        [p for p in bottom if p != end]
        + [p for p in points if height(v, p) == 0]
        + top + [(x + w[0], y + w[1]) for x, y in top])


def apply_operator(L, s) -> PowerSeries:
    """Coefficientwise image of the series s under L = sum_k p_k(t) D^k,
    D = t d/dt: its t^m coefficient is sum_k sum_j p_k[j] (m - j)^k s_{m-j}."""
    c = s.coefficients
    return PowerSeries([
        sum(a * (m - j) ** k * c[m - j]
            for k, p in enumerate(L.polys)
            for j, a in enumerate(p.coeffs[: m + 1]))
        for m in range(len(c))
    ])


def row_walk(g: list, M: int, s: int) -> list[int]:
    """CT(g^m) for 0 <= m <= M, where g lists (a, b, c) for the terms
    c x^a y^b of an integral polynomial.

    The powers g, g^2, ..., g^M are built by rows: row b of g^m is its y^b
    part, packed into one int whose s-bit digit in slot a - m*a_min is its
    x^a coefficient, with a_min = min(0, least x-exponent of g), so every
    shift is nonnegative and x^0 has a slot; CT(g^m) is one digit of row 0.
    With the y-exponents of g in [lo, hi], lo <= 0 <= hi, a row t of g^m
    can reach y^0 in the remaining M - m steps only if
    -hi*(M-m) <= t <= -lo*(M-m); the other rows are dropped, and every row
    a kept row needs at the next step is itself kept.
    """
    a_min = min([0] + [a for a, _, _ in g])
    lo = min([0] + [b for _, b, _ in g])
    hi = max([0] + [b for _, b, _ in g])
    # the terms of g by y-exponent: (shift of the packed row, coefficient)
    by_y: dict = {}
    for a, b, c in g:
        by_y.setdefault(b, []).append((s * (a - a_min), c))
    rows = {0: 1}
    coeffs = [1]
    for m in range(1, M + 1):
        low, high = -hi * (M - m), -lo * (M - m)
        out: dict = {}
        for b, r in rows.items():
            for j, terms in by_y.items():
                t = b + j
                if low <= t <= high:
                    acc = out.get(t, 0)
                    for shift, c in terms:
                        acc += (r << shift) * c
                    out[t] = acc
        rows = out
        coeffs.append(_digit(rows.get(0, 0), -m * a_min * s, s))
    return coeffs


def torus_counts(f, p: int) -> list[int]:
    """N_p(c) = #{(x, y) in (F_p^*)^2 : f(x, y) = c} for c = 0 .. p - 1,
    filled in one pass over the torus; f is a LaurentPoly with integer
    coefficients and p an odd prime.

    These counts meet the period c_k = CT(f_P^k) of a reflexive P in

        1 - n(P) - N_p(-l) = sum_{k<p} c_k t^k (mod p),  t = -1/l,

    for every l in F_p^*, with n(P) the number of vertices of P.  All sums
    are over the (p - 1)^2 points of the torus, and mod p.  Since a^(p-1)
    is 1 for a unit and 0 for zero, N_p(c) = sum (1 - (f - c)^(p-1)), so
    1 - N_p(c) = sum (f - c)^(p-1).  With binom(p-1, k) = (-1)^k,
    (f - c)^(p-1) = sum_{k<p} c^(p-1-k) f^k, and c^(p-1-k) = c^(-k) = t^k
    at c = -l.  A monomial x^a y^b sums to (p - 1)^2 = 1 when p - 1
    divides a and b, and to 0 otherwise.  The exponents of f^k lie in kP,
    and (p - 1)u in kP means u in (k/(p-1))P.  For k < p - 1 that lies in
    the interior of P, whose one lattice point is 0, so the sum of f^k is
    c_k.  For k = p - 1 the boundary points u of P add the boundary term.
    (p - 1)u lies on the face (p - 1)F of (p - 1)P, F the least face of P
    that holds u, so each of the p - 1 factors of its coefficient in
    f^(p-1) is a term of f on F.  At a vertex that is the vertex
    coefficient, 1, to the power p - 1, so 1.  Inside an edge of lattice
    length e < p, where f is x^w (1 + z)^e with z the edge's primitive
    step, u = w + j z with 0 < j < e, and Lucas gives
    binom(e(p-1), j(p-1)) = binom(e-1, j-1) binom(p-e, p-j) = 0, since
    p - j > p - e.  So the sum of f^(p-1) is c_(p-1) + n(P), and the
    congruence follows.
    """
    terms = [(i, j, a % p) for (i, j), a in f.terms.items()]
    counts = [0] * p
    for x in range(1, p):
        row = [(j, a * pow(x, i, p)) for i, j, a in terms]
        for y in range(1, p):
            counts[sum(b * pow(y, j, p) for j, b in row) % p] += 1
    return counts


def kernels_mod_p(c: list, h: int,
                  p: int = (1 << _MERSENNE_EXPONENTS[0]) - 1):
    """Kernels of the fit matrices of order h and degree 0, 1, 2, ... over
    Z/p for the integer series coefficients c, one per fit row: the
    contract of period._kernels(c, h, p), computed on lists of ints.

    Each new column (k, d), entries (m - d)^k c_{m-d}, is reduced against
    the pivot columns so far, each scaled to 1 at its pivot row, the first
    nonzero row; one that reduces to zero gives the combination of columns
    that cancels, entry 1 at the new column, all entries in [0, p).  For
    each d this yields the kernel vectors found so far."""
    pivots = []  # (pivot row, column scaled to 1 there, its combination)
    kernel = []
    for d in count():
        for k in range(h + 1):
            n = len(pivots) + len(kernel)
            col = [(m - d) ** k * c[m - d] if m >= d else 0
                   for m in range(len(c))]
            comb = [0] * n + [1]
            # entries are reduced only at the end; each pivot column leaves
            # the earlier pivot rows at zero, so one pass suffices
            for r, pcol, pcomb in pivots:
                f = col[r] % p
                if f:
                    col = [a - f * b for a, b in zip(col, pcol)]
                    comb[: len(pcomb)] = [
                        a - f * b for a, b in zip(comb, pcomb)
                    ]
            col = [a % p for a in col]
            comb = [a % p for a in comb]
            r = next((i for i, a in enumerate(col) if a), None)
            if r is None:
                kernel.append(comb)
                continue
            inv = pow(col[r], -1, p)
            pivots.append((r, [a * inv % p for a in col],
                           [a * inv % p for a in comb]))
        yield list(kernel)


def trop_map(m, data):
    """Piecewise-linear map m -> m - min{0, <m, w>} v on the dual lattice of
    the mutation with data (v, w); the identity on <., w> >= 0."""
    t = min(0, m[0] * data.w[0] + m[1] * data.w[1])
    return (m[0] - t * data.v[0], m[1] - t * data.v[1])


def _semistable_fibres(config) -> list[int]:
    """The multiset of n-values of all I_n fibres; errors on additive types."""
    out = []
    for _, t, c in config.entries:
        if t.kind != "I":
            raise ValueError("semistable only")
        out.extend([t.n] * c)
    return out


def miranda_identities(config, order: int, components: list[int]) -> dict:
    """Check Miranda's identities for a torsion section of the given order.

    components[i] is the index of the fibre component met by the section, one
    entry per I_n fibre in the order of _semistable_fibres.  Identities (for
    chi(O_Y) = 1): sum m_j (m_v - m_j) / m_v = 2, and sum of the normalized
    m_j (taken <= m_v / 2) equals 3 for order >= 3 and 4 for order = 2.
    """
    ns = _semistable_fibres(config)
    if len(components) != len(ns):
        raise ValueError("one component index per I_n fibre required")
    s1 = Fraction(0)
    s2 = 0
    for n, j in zip(ns, components):
        if not 0 <= j < max(n, 1):
            raise ValueError("component index out of range")
        s1 += Fraction(j * (n - j), n) if n else 0
        s2 += min(j, n - j)
    expected = 4 if order == 2 else 3
    return {
        "contribution_sum": s1,
        "contribution_ok": s1 == 2,
        "component_sum": s2,
        "component_ok": s2 == expected,
        "ok": s1 == 2 and s2 == expected,
    }


def find_torsion_components(config, order: int,
                            infinity_position: int) -> list[list[int]]:
    """All component assignments satisfying both identities, with the
    position on the infinity fibre fixed; finite I_n components are searched
    (up to the j <-> n - j symmetry)."""
    ns = _semistable_fibres(config)
    inf_index = next(
        i for i, (loc, _, _) in enumerate(
            (loc, t, c) for loc, t, c in config.entries for _ in range(c)
        ) if loc == "infinity"
    )
    choices: list[list[int]] = []
    for i, n in enumerate(ns):
        if i == inf_index:
            choices.append([infinity_position])
        else:
            choices.append(list(range(0, n // 2 + 1)) if n else [0])
    results = []

    def rec(i, acc):
        if i == len(choices):
            if miranda_identities(config, order, acc)["ok"]:
                results.append(list(acc))
            return
        for j in choices[i]:
            rec(i + 1, acc + [j])

    rec(0, [])
    return results


def gcd_poly(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q, by the certified modular gcd `_gcd_int` of the
    primitive integer multiples of p and q.

    No coefficient bound is needed, since trial division accepts the
    answer.  On the elimination polynomial of 9 under ((-11,3),(-4,1)),
    of degree 78 with 982-bit coefficients, Yun's decomposition through
    it takes 0.04 s (2 vCPUs, CPython 3.11.7); the monic Euclid over Q
    took 175 s, and an integer subresultant gcd 30.6 s."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) undefined")
    g = _gcd_int(p.primitive_integer().coeffs,
                 q.primitive_integer().coeffs)[0]
    return UniPoly(g, p.var).monic()


def inverse_mod(a: UniPoly, q: UniPoly) -> UniPoly:
    """The inverse of the nonzero residue a in Q[z]/(q), by the extended
    Euclidean algorithm.  Raises ZeroDivisorError with the monic gcd(a, q)
    when it is not 1."""
    r0, r1 = q, a
    s0, s1 = UniPoly([], a.var), UniPoly([1], a.var)
    while not r1.is_zero():
        qt, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - qt * s1
    if not r0.is_const():
        raise ZeroDivisorError(r0.monic())
    return (s0 * _div(1, r0.lc())).divmod(q)[1]


def euclid_over_quotient(a: list, b: list, q: UniPoly) -> list:
    """Monic gcd over Q[z]/(q), q squarefree, of the dense ascending lists
    a and b, not both zero, of UniPoly residues of degree < deg q; the
    reference for `algebra.gcd_over_quotient`.

    Every divisor is made monic by `inverse_mod` before it divides, and a
    leading coefficient that is a zero divisor raises ZeroDivisorError.
    The first divisor is the nonzero input of lower degree.  A divisor
    whose leading coefficient is already 1 divides as it is; a nonzero
    constant divisor c ends the Euclid with the gcd 1 once gcd(c, q) is
    constant, and otherwise raises with that monic gcd.
    """
    a, b = _trim(a), _trim(b)
    if not b or a and len(a) < len(b):
        a, b = b, a
    while b:
        n = len(b) - 1
        if not n:
            g = gcd_poly(b[0], q)
            if not g.is_const():
                raise ZeroDivisorError(g)
            return [UniPoly([1], b[0].var)]
        if b[-1] != 1:
            inv = inverse_mod(b[-1], q)
            b = [(c * inv).divmod(q)[1] for c in b]
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i].divmod(q)[1]
            if c:
                for j in range(n):
                    a[i - n + j] -= c * b[j]
        a, b = b, _trim([c.divmod(q)[1] for c in a[:n]])
    return a


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: p = lc * prod f_i^i with the f_i monic squarefree and
    pairwise coprime.  Returns [(f_i, i)] for nonconstant f_i.

    It runs on the primitive integer multiple of p, with each gcd from
    `_gcd_int` and each quotient its exact cofactor.  Every relation of the
    algorithm is linear in the pair it divides, so a gcd scaled by a
    constant scales both quotients alike, and only the monic f_i are read.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.is_const():
        return []
    a = p.primitive_integer().coeffs
    _, b, c = _gcd_int(a, _derivative(a))
    d = _sub(c, _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        f, b, c = _gcd_int(b, d)
        if len(f) > 1:
            out.append((UniPoly(f, p.var).monic(), i))
        d = _sub(c, _derivative(b))
        i += 1
    return out


def int_content(coeffs: list, var: str) -> list[int]:
    """The gcd in Z[var] of the primitive integer multiples of the MPoly
    coefficients (each involving only var), each taken through `UniPoly`,
    as `_gcd_int` normalises it; [] when every coefficient is zero."""
    g: list[int] = []
    for c in coeffs:
        if c:
            g = _gcd_int(g, c.to_unipoly(var).primitive_integer().coeffs)[0]
            if len(g) == 1:
                break
    return g


def _strip_x(p: UniPoly) -> UniPoly:
    k = 0
    while k <= p.degree and p[k] == 0:
        k += 1
    return UniPoly(p.coeffs[k:], p.var)


def values_at_y(A: MPoly, B: MPoly, J: MPoly, C: MPoly, y0) -> UniPoly:
    """prod (l + f(p)) over the critical points p = (x, y0), with A, B, J
    and C evaluated at y0 = n/d (`MPoly.eval_var`: each times a power of
    d) and the monic gcd over Q: the contract of fibration._values_over on
    Q[y]/(d y - n), up to a nonzero constant, with the same errors."""
    y0 = Fraction(y0)
    A0, B0, J0 = (p.eval_var("y", y0).to_unipoly("x") for p in (A, B, J))
    g = _strip_x(gcd_poly(A0, B0))
    if g.is_const():
        return UniPoly([1], "l")
    if not gcd_poly(g, J0).is_const():
        factor = UniPoly([-y0.numerator, y0.denominator], "y")
        raise ArithmeticError(
            f"critical point is not an ordinary node: stage torus nodes, "
            f"y a root of {format_unipoly(factor)}")
    g = MPoly.from_unipoly(g.primitive_integer(), "x")
    return resultant(g, C.eval_var("y", y0), "x").to_unipoly("l")


def operator_singular_locus(L: DiffOperator):
    """Finite singular candidates of L: rational roots (with multiplicity) and
    residual rational-root-free factors of the leading coefficient p_h.

    Returns {"roots": [(t*, mult)], "residual": [(UniPoly, mult)],
    "zero": bool, "infinity": True} -- t = 0 is flagged when p_h(0) = 0;
    t = infinity is always reported, unclassified.
    """
    lead = L.polys[-1]
    roots, residual = squarefree_rational_roots(lead)
    return {
        "roots": [(r, m) for r, m in roots if r != 0],
        "residual": residual,
        "zero": lead(0) == 0,
        "infinity": True,
    }
