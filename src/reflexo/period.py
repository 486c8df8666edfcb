"""Classical periods and Picard-Fuchs operators.

The period of a Laurent polynomial f is the power series whose m-th
coefficient is the constant term of f^m.  An annihilating operator
L = sum_k p_k(t) D^k with D = t d/dt is recovered by exact fitting of the
induced linear recursion on the coefficients; the fibre parameter of the
pencil relates to the series variable by t = -1/lambda.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .algebra import UniPoly, format_unipoly, squarefree_rational_roots
from .laurent import LaurentPoly


class PowerSeries:
    """Exact truncated power series: coefficients c_0..c_M."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = [Fraction(c) for c in coefficients]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, m: int) -> Fraction:
        return self.coefficients[m]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.coefficients == other.coefficients
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coefficients[:8])
        tail = ", ..." if len(self.coefficients) > 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


def period_coefficients(f: LaurentPoly, M: int) -> PowerSeries:
    """c_m = constant term of f^m for 0 <= m <= M.

    Meet in the middle: with a = ceil(m/2) and b = floor(m/2),
    c_m = CT(f^a * f^b) = sum_u F_a[u] * F_b[-u], where F_k maps exponents to
    the coefficients of f^k.  Only the powers f^k with k <= ceil(M/2) are
    needed, and only the two latest are kept: c_{2k-1} pairs f^k with
    f^(k-1), and c_{2k} pairs f^k with itself.  When every coefficient of f
    is integral (as for every f_P) the powers are plain int dicts; otherwise
    the same loop runs on the Fraction values.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if all(c.denominator == 1 for c in f.terms.values()):
        f_items = [(u, int(c)) for u, c in f.terms.items()]
    else:
        f_items = list(f.terms.items())
    coeffs = [1] + [0] * M
    prev = {(0, 0): 1}
    for k in range(1, (M + 1) // 2 + 1):
        cur = _times(prev, f_items)
        coeffs[2 * k - 1] = _pairing(cur, prev)
        if 2 * k <= M:
            coeffs[2 * k] = _pairing(cur, cur)
        prev = cur
    return PowerSeries(coeffs)


def _times(F: dict, f_items: list) -> dict:
    """Sparse product of the exponent -> coefficient map F with f."""
    out: dict = {}
    get = out.get
    for (a2, b2), v2 in f_items:
        for (a1, b1), v1 in F.items():
            u = (a1 + a2, b1 + b2)
            out[u] = get(u, 0) + v1 * v2
    return {u: v for u, v in out.items() if v}


def _pairing(F: dict, G: dict):
    """sum_u F[u] * G[-u]: the constant term of the product of F and G."""
    get = G.get
    return sum(v * get((-a, -b), 0) for (a, b), v in F.items())


class DiffOperator:
    """L = sum_{k=0}^h p_k(t) D^k with D = t d/dt and p_h nonzero."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        ps = [p if isinstance(p, UniPoly) else UniPoly(p) for p in polys]
        while ps and ps[-1].is_zero():
            ps.pop()
        if not ps:
            raise ValueError("zero operator")
        self.polys = ps

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def normalized(self) -> "DiffOperator":
        """Primitive integer coefficients; the lowest nonzero coefficient of
        the leading polynomial p_h is made positive."""
        num_lcm = 1
        den_lcm = 1
        for p in self.polys:
            for c in p.coeffs:
                if c != 0:
                    den_lcm = den_lcm * c.denominator // int_gcd(
                        den_lcm, c.denominator
                    )
        g = 0
        for p in self.polys:
            for c in p.coeffs:
                g = int_gcd(g, abs(int(c * den_lcm)))
        scale = Fraction(den_lcm, g if g else 1)
        lead = self.polys[-1]
        low = next(c for c in lead.coeffs if c != 0)
        if low * scale < 0:
            scale = -scale
        return DiffOperator([p * scale for p in self.polys])

    def dual_form(self) -> list[UniPoly]:
        """The same operator written sum_j t^j P_j(D): P_j as UniPoly in D."""
        max_j = max(p.degree for p in self.polys)
        out = []
        for j in range(max_j + 1):
            out.append(UniPoly([p[j] for p in self.polys], var="D"))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOperator) and self.polys == other.polys

    def __repr__(self):
        terms = []
        for k, p in enumerate(self.polys):
            if p.is_zero():
                continue
            dk = "" if k == 0 else ("*D" if k == 1 else f"*D^{k}")
            terms.append(f"({format_unipoly(p)}){dk}")
        return "DiffOperator(" + " + ".join(terms) + ")"


def apply_operator(L: DiffOperator, s: PowerSeries) -> PowerSeries:
    """Coefficientwise image of s under L."""
    return PowerSeries(
        [_image_coefficient(L, s.coefficients, m) for m in range(s.order + 1)]
    )


def _image_coefficient(L: DiffOperator, c: list, m: int):
    """The t^m coefficient of L s, where c lists the coefficients of s:
    sum_k sum_j p_k[j] (m-j)^k c_{m-j}."""
    acc = Fraction(0)
    for k, p in enumerate(L.polys):
        for j, a in enumerate(p.coeffs[: m + 1]):
            if a:
                acc += a * (m - j) ** k * c[m - j]
    return acc


# The screen prime, 2^61 - 1.
_PRIME = (1 << 61) - 1


def _screen_skips(rows: list[list], ncols: int) -> bool:
    """True when the matrix has full column rank modulo _PRIME.

    Reduction mod p is a ring map, so every minor that vanishes over Q
    vanishes mod p and rank_p <= rank_Q.  Full column rank mod p therefore
    proves full column rank over Q: the kernel over Q is empty and the exact
    solve can be skipped.  The screen does not decide (returns False) when
    the kernel mod p is nonempty or when some entry has a denominator
    divisible by p.
    """
    mat = []
    for row in rows:
        reduced = []
        for v in row:
            if type(v) is int:
                reduced.append(v % _PRIME)
                continue
            den = v.denominator % _PRIME
            if not den:
                return False
            reduced.append(v.numerator * pow(den, -1, _PRIME) % _PRIME)
        mat.append(reduced)
    # Gaussian elimination that drops each pivot column and pivot row and
    # stops at the first column without a pivot.
    for _ in range(ncols):
        pivot = next((row for row in mat if row[0]), None)
        if pivot is None:
            return False
        inv = pow(pivot[0], -1, _PRIME)
        rest = []
        for row in mat:
            if row is pivot:
                continue
            f = row[0] * inv % _PRIME
            if f:
                rest.append(
                    [(a - f * b) % _PRIME for a, b in zip(row[1:], pivot[1:])]
                )
            else:
                rest.append(row[1:])
        mat = rest
    return True


def _kernel(rows: list[list], ncols: int) -> tuple[list[Fraction] | None, int]:
    """One kernel vector of the matrix (rows x ncols) over Q, or None, and
    the dimension of the kernel.

    Gauss-Jordan; the kernel vector sets the first free variable to 1, so the
    result is deterministic.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivot_of_col = [-1] * ncols
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
        if r == len(mat):
            break
    free = next((c for c in range(ncols) if pivot_of_col[c] == -1), None)
    if free is None:
        return None, 0
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for c in range(ncols):
        pr = pivot_of_col[c]
        if pr != -1:
            vec[c] = -mat[pr][free]
    return vec, ncols - r


def find_picard_fuchs(
    s: PowerSeries,
    max_order: int = 4,
    max_degree: int = 12,
    guard: int = 8,
) -> DiffOperator:
    """Minimal annihilating operator: order h ascending from 1, then degree d
    ascending; a candidate kernel must also annihilate the last `guard`
    coefficients, which are excluded from the fit.

    Each (h, d) fit matrix is first reduced modulo the prime 2^61 - 1.  If it
    has full column rank there, it has full column rank over Q as well,
    because rank_p <= rank_Q, so its kernel is provably empty and the shape
    is skipped without Fraction arithmetic.  Every other shape (kernel mod p
    nonempty, or a denominator divisible by p) goes to the exact Gauss-Jordan
    solve.  At the accepted shape the exact kernel must have dimension 1;
    otherwise the operator is not determined by the data and ValueError is
    raised, as it is when no shape within the bounds is accepted.
    """
    M = s.order
    c = [int(x) if x.denominator == 1 else x for x in s.coefficients]
    for h in range(1, max_order + 1):
        for d in range(0, max_degree + 1):
            ncols = (h + 1) * (d + 1)
            if ncols + guard > M + 1:
                break  # not enough data at this order
            rows = _fit_matrix(c, h, d, guard)
            if _screen_skips(rows, ncols):
                continue
            vec, nullity = _kernel(rows, ncols)
            if vec is None:
                continue
            polys = [
                UniPoly(vec[k * (d + 1) : (k + 1) * (d + 1)])
                for k in range(h + 1)
            ]
            if polys[h].is_zero():
                continue  # order drops: this is a lower-order relation
            L = DiffOperator(polys)
            if all(
                _image_coefficient(L, c, m) == 0
                for m in range(M - guard + 1, M + 1)
            ):
                if nullity != 1:
                    raise ValueError(
                        f"operator not unique: kernel of dimension {nullity}"
                        f" at order {h}, degree {d} (use more coefficients)"
                    )
                return L.normalized()
    raise ValueError("no operator found (raise bounds)")


def _fit_matrix(c: list, h: int, d: int, guard: int) -> list[list]:
    """Fit matrix of the shape (h, d): one row per coefficient m outside the
    guard; the entry for unknown a_{k,j} is (m-j)^k c_{m-j}."""
    return [
        [
            (m - j) ** k * c[m - j] if m >= j else 0
            for k in range(h + 1)
            for j in range(d + 1)
        ]
        for m in range(len(c) - guard)
    ]


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
