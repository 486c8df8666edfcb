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
`squarefree_decomposition` is Yun's algorithm on the program's integer gcd;
`int_content` and `values_at_y` are the content of a coefficient list and
the critical values over one rational y taken through `UniPoly` and
`Fraction` values, the references for the int-list paths of the program.
All are plain int and Fraction arithmetic on the program's types.
"""

from fractions import Fraction
from itertools import count

from reflexo.algebra import (
    _PRIME,
    MPoly,
    UniPoly,
    _derivative,
    _gcd_int,
    _sub,
    gcd_poly,
    resultant,
)
from reflexo.period import PowerSeries


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


def kernels_mod_p(c: list, h: int, p: int = _PRIME):
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
    and C evaluated at y0 in Fractions and the monic gcd over Q: the
    contract of fibration._values_at_y up to a nonzero constant, with the
    same errors."""
    A0, B0, J0 = (p.eval_var("y", y0).to_unipoly("x") for p in (A, B, J))
    g = _strip_x(gcd_poly(A0, B0))
    if g.is_const():
        return UniPoly([1], "l")
    if not gcd_poly(g, J0).is_const():
        raise ArithmeticError(
            f"critical point is not an ordinary node: stage torus nodes, "
            f"y = {y0}")
    g = MPoly.from_unipoly(g, "x")
    return resultant(g, C.eval_var("y", y0), "x").to_unipoly("l")
