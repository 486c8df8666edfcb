"""Independent oracles the tests check the program against.

`bareiss_determinant` is a fraction-free determinant over Q.  With
`sylvester_matrix` it is the oracle for `resultant`; with `cartan_matrix`
it is the oracle for `KodairaType.det`, the determinant of the root lattice
of a fibre's non-identity components, built here from the explicit Dynkin
diagram.  `random_unimodular` draws the seeded GL2(Z) matrices of the
coordinate-change tests.
"""

from fractions import Fraction

from reflexo.algebra import MPoly


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
