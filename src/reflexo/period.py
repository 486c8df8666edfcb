"""Classical periods and Picard-Fuchs operators.

The period of a Laurent polynomial f is the power series whose m-th
coefficient is the constant term of f^m.  Polynomials in x are packed into
ints whose fixed-width digits are their coefficients, and the constant term
of f^m is one digit.  When the exponents of f on one axis lie in
{-1, 0, 1}, the y^0 part S_m of f^m follows the three-term Legendre-type
recurrence
(m + 1) S_{m+1} = (2m + 1) F_0 S_m - m (F_0^2 - 4 F_1 F_-1) S_{m-1}
for f = F_-1 / y + F_0 + F_1 y.  When they lie in {-1, 0, 1, 2}, or in
{-2, ..., 1} and the axis is reflected, the y^2 row F_2 y^2 is peeled off
by the binomial theorem, and each y^-2k part of the rest follows a
three-term recurrence of the same kind.  In the chart that _frame picks,
every f_P takes one of these: the 15 of lattice width 2 with no y^2 row,
and polygon 9, of width 3, with one.  Otherwise the powers f, f^2, ...,
f^M are built row by row in y, and only the rows that can still reach y^0
are kept.  One digit width serves all: for an integral f, every digit read
is a coefficient of some F_2^k (f - F_2 y^2)^n or f^m with n + k, m <= M,
at most |f|_1^M.  An
annihilating operator L = sum_k p_k(t) D^k with D = t d/dt is recovered by
fitting the induced linear recursion on the coefficients.  The series is
first scaled to coprime integers, which leaves L unchanged.  The fit of each
order runs one incremental column elimination over Z/p for a Mersenne
prime p = 2^e - 1.  Every vector of a nonempty kernel there is lifted by
rational reconstruction and accepted only after an exact check over Z.
Where one does not lift, the order is run again modulo the next, larger
Mersenne prime of a fixed list, and a shape that the last of them cannot
decide is reported as undecided.  The columns are packed: a column is
one int with a fixed-width slot per fit row, so reducing against a pivot
is one multiply-add, and a combination of columns, one int with a slot per
column, is made only for a column that gives a kernel vector.  Slots are
reduced all at once by folding, since 2^e = 1 mod p, and the width keeps
every slot below p^2 (rows + 1): a column meets at most one pivot per fit
row.  The fibre parameter of the pencil relates to the series variable by
t = -1/lambda.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, gcd, isqrt, lcm

from .algebra import UniPoly, _div, _exact, _primitive_scale, format_unipoly
from .laurent import LaurentPoly


class PowerSeries:
    """Exact truncated power series: coefficients c_0..c_M, each an int
    where it is integral and a Fraction otherwise."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = [_exact(c) for c in coefficients]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, m: int) -> int | Fraction:
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

    f is first moved by _frame to a chart that no map of _MAPS ranks
    lower, by tier (which walk it can take) and then by bounding box (the
    cost follows the box, not the support; constant terms do not change),
    and scaled by the lcm D of its denominators to g = D f, so
    c_m = CT(g^m) / D^m.  At tier 0 or 1, where the y-exponents of g lie in
    {-1, 0, 1, 2}, CT(g^m) is read off the three-term recurrences of
    _recurrence; at tier 2, g^m is built by the rows of _row_walk.  Both
    pack polynomials in x into ints whose s-bit digits are the
    coefficients; see _slot_bits for the width.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    f, tier = _frame(f)
    den = lcm(*(c.denominator for c in f.terms.values()))
    g = [(a, b, int(c * den)) for (a, b), c in f.terms.items()]
    s = _slot_bits(sum(abs(c) for _, _, c in g), M)
    walk = _recurrence if tier < 2 else _row_walk
    return PowerSeries(
        [_div(c, den ** m) for m, c in enumerate(walk(g, M, s))]
    )


# Exponent maps u -> A u: the identity; those that put x, 1/y or 1/x on
# the y axis; the shears (x, y) -> (x +- y, y) and (x, y +- x).
_MAPS = (((1, 0), (0, 1)), ((0, 1), (1, 0)),
         ((1, 0), (0, -1)), ((0, 1), (-1, 0)),
         ((1, 1), (0, 1)), ((1, -1), (0, 1)),
         ((1, 0), (1, 1)), ((1, 0), (-1, 1)))


def _rank(f: LaurentPoly, A) -> tuple[int, int]:
    """(tier, box) of f.transform(A), read without building it: tier 0 when
    its y-exponents lie in {-1, 0, 1}, 1 when they lie in {-1, ..., 2},
    else 2; box is (x-extent + 1)(y-extent + 1) of its support."""
    (a, b), (c, d) = A
    xs = [a * u + b * v for u, v in f.terms]
    ys = [c * u + d * v for u, v in f.terms]
    lo, hi = min(ys), max(ys)
    tier = 0 if -1 <= lo and hi <= 1 else 1 if -1 <= lo and hi <= 2 else 2
    return tier, (max(xs) - min(xs) + 1) * (hi - lo + 1)


def _frame(f: LaurentPoly) -> tuple[LaurentPoly, int]:
    """f moved by the maps of _MAPS while one of them ranks below the
    identity, the lowest (the first among equals) each time, and its tier.
    The rank falls at every step, so the descent ends; the maps are
    unimodular, so every CT(f^m) is unchanged."""
    if not f.terms:
        return f, 0
    while True:
        (tier, _), i = min((_rank(f, A), i) for i, A in enumerate(_MAPS))
        if not i:
            return f, tier
        f = f.transform(_MAPS[i])


def _recurrence(g: list, M: int, s: int) -> list[int]:
    """CT(g^m) for 0 <= m <= M, where g lists (a, b, c) for the terms
    c x^a y^b of an integral polynomial with every b in {-1, 0, 1, 2}.

    Write g = g_2 + F_2 y^2 with g_2 = F_-1 / y + F_0 + F_1 y and F_i in
    Z[x^+-1].  The two parts commute, so by the binomial theorem

        CT(g^m) = sum_{3k <= m} C(m, k) CT_x(F_2^k T_{m-k,-2k}),

    where T_{n,j} = [y^j] g_2^n, which is 0 unless |j| <= n.  For j <= 0,
    sum_n T_{n,j} t^n = [y^j] 1 / (1 - t g_2) is the residue of
    y^(-j-1) / (1 - t g_2) at the root u = F_-1 t + O(t^2) of
    y (1 - t g_2) = -F_1 t y^2 + (1 - F_0 t) y - F_-1 t, namely
    G_j = u^|j| / sqrt(D) with D = 1 - 2 F_0 t + Delta t^2 and
    Delta = F_0^2 - 4 F_1 F_-1.  Differentiating that quadratic gives
    theta u = u / sqrt(D) (theta = t d/dt), and theta sqrt(D) =
    (Delta t^2 - F_0 t) / sqrt(D), from which

        (theta^2 - j^2) G_j = t (theta + 1) (2 theta + 1) F_0 G_j
                              - t^2 (theta + 1) (theta + 2) Delta G_j,

    whose t^n coefficient is the recurrence

        (n^2 - j^2) T_{n,j} = n (2n - 1) F_0 T_{n-1,j}
                              - n (n - 1) Delta T_{n-2,j},

    from T_{|j|-1,j} = 0 and T_{|j|,j} = F_-1^|j|.  For j = 0 it is the
    Legendre-type recurrence of the y^0 part of g_2^n.  The chain for
    j = -2k is run on U_n = F_2^k T_{n,-2k}, which follows the same
    recurrence from U_{2k} = (F_2 F_-1^2)^k, so no product is formed; the
    x^0 coefficient of U_{m-k}, times C(m, k), goes into CT(g^m).  A chain
    whose start is 0 (no y^2 row, or no 1/y row) adds nothing, nor does any
    later one.

    U_n is one int whose s-bit digit in slot a - (n + k) a_min is its x^a
    coefficient, with a_min = min(0, least x-exponent of g), so every shift
    is nonnegative.  Packing is evaluation at x = 2^s, a ring map, so the
    packed right side is exactly n^2 - j^2 times the packed U_n whatever
    its digits hold; the division leaves no remainder, which is checked.
    Only the digits read must fit: those of U_n are coefficients of
    F_2^k g_2^n, at most |g|_1^(n+k) in absolute value.
    """
    a_min = min([0] + [a for a, _, _ in g])
    F = {j: LaurentPoly({(a, 0): c for a, b, c in g if b == j})
         for j in (-1, 0, 1, 2)}
    delta = F[0] * F[0] + F[1] * F[-1] * LaurentPoly({(0, 0): -4})

    def packed(p: LaurentPoly, d: int) -> list:
        # (shift, coefficient) of the terms of p, in slots a - d*a_min
        return [(s * (a - d * a_min), c) for (a, _), c in p.terms.items()]

    f0, dl = packed(F[0], 1), packed(delta, 2)
    step = sum(c << shift for shift, c in packed(F[2] * F[-1] * F[-1], 3))
    coeffs = [1] + [0] * M
    start = 1
    for k in range(M // 3 + 1):
        if not start:
            break
        j2 = 4 * k * k
        prev, cur = 0, start
        if k:  # CT(g^0) = 1 is set, not read: s = 1 when g = 0
            coeffs[3 * k] += comb(3 * k, k) * _digit(
                cur, -3 * k * a_min * s, s)
        for n in range(2 * k + 1, M - k + 1):
            # n / (n^2 - j^2) in lowest terms: 1/n when j = 0
            q = gcd(n, j2)
            x = (n // q * (2 * n - 1) * sum((cur << sh) * c for sh, c in f0)
                 - n // q * (n - 1) * sum((prev << sh) * c for sh, c in dl))
            nxt, r = divmod(x, (n * n - j2) // q)
            if r:
                raise ArithmeticError("period recurrence: inexact division")
            prev, cur = cur, nxt
            coeffs[n + k] += comb(n + k, k) * _digit(
                cur, -(n + k) * a_min * s, s)
        start *= step
    return coeffs


def _row_walk(g: list, M: int, s: int) -> list[int]:
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


def _slot_bits(norm: int, M: int) -> int:
    """The digit width s for the powers up to M of an integral polynomial g
    whose coefficients have absolute values summing to norm:
    norm^M < 2^(s-1).  Every coefficient of g^m, m <= M, and of
    F_2^k g_2^n, n + k <= M (see _recurrence), is at most norm^M in
    absolute value; _recurrence and _row_walk, whichever the tier of
    _frame picks, read only such coefficients, so the balanced digits they
    read never carry into each other."""
    return (norm ** M).bit_length() + 1


def _digit(r: int, p: int, s: int) -> int:
    """The balanced s-bit digit of r at bit position p, in
    (-2^(s-1), 2^(s-1)): adding 2^(p-1) absorbs the lower digits, whose sum
    lies in [-2^(p-1), 2^(p-1))."""
    d = ((r + (1 << p >> 1)) >> p) & ((1 << s) - 1)
    return d - (1 << s) if d >> (s - 1) else d


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
        scale = _primitive_scale([c for p in self.polys for c in p.coeffs])
        if next(c for c in self.polys[-1].coeffs if c != 0) < 0:
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

    def __str__(self):
        """The t-form: sum of (p_k(t))*D^k over the nonzero p_k."""
        terms = []
        for k, p in enumerate(self.polys):
            if p.is_zero():
                continue
            dk = "" if k == 0 else ("*D" if k == 1 else f"*D^{k}")
            terms.append(f"({format_unipoly(p)}){dk}")
        return " + ".join(terms)

    def __repr__(self):
        return f"DiffOperator({self})"


def _image_coefficient(ps: list[list], c: list, m: int):
    """The t^m coefficient of L s, where ps lists the coefficients of
    p_0..p_h and c those of s: sum_k sum_j p_k[j] (m-j)^k c_{m-j}.  It is
    summed in ints when every entry used is an int."""
    acc = 0
    for k, p in enumerate(ps):
        for j, a in enumerate(p[: m + 1]):
            if a:
                acc += a * (m - j) ** k * c[m - j]
    return acc


# The exponents e of the Mersenne primes 2^e - 1 that the fit runs modulo,
# in turn.  They must be Mersenne primes, not the next primes below 2^61
# that algebra's modular gcd uses: _kernels folds its slots by 2^e = 1 mod p.
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423)


def _kernels(c: list, h: int, p: int):
    """Kernels of the fit matrices of order h and degree 0, 1, 2, ... over
    Z/p for the Mersenne prime p = 2^e - 1; c lists the integer series
    coefficients, one per fit row.

    The fit matrix of shape (h, d) is that of (h, d - 1) with the h + 1
    columns (k, d), k <= h, appended, so one column elimination serves every
    degree.  Each new column is reduced against the pivot columns found so
    far, each scaled to 1 at its pivot row; one that reduces to zero gives a
    kernel vector, the combination of columns that cancels, with entry 1 at
    the new column.  For each d in turn this yields the kernel vectors found
    so far, a basis of the kernel of the shape (h, d).  Entry j*(h+1) + k of
    a vector belongs to column (k, j); a vector found at a lower degree is
    shorter.  The entries are the residues in [0, p).

    A column is one int with a w-byte slot per fit row, slot m holding row m;
    a combination is one int with a slot per column so far.  Column (k, d)
    is the packing of [j^k c_j mod p]_j (_packed_powers, made once per k and
    series), shifted up d slots and cut to the fit rows.  Reducing against a
    pivot reads one slot, of residue f, and adds p - f times the pivot
    column, so no slot is ever negative.  Since 2^e = 1 mod p, a slot v is
    folded to (v mod 2^e) + (v >> e), for every slot at once by a few masks
    and shifts, until it lies in [0, p].  Pivots are kept folded, and pivot
    rows are distinct, so a column meets at most len(c) pivots and each of
    its slots stays below p^2 (len(c) + 1), the bound w is chosen for.  A
    reduced column is folded, and one compare-and-subtract makes each slot a
    residue in [0, p): the column is then zero exactly when its kernel
    vector is due, and otherwise its lowest nonzero slot is the new pivot
    row.

    Combinations are not carried through the reductions, since most columns
    become pivots and never need theirs.  Each column keeps the factors
    p - f it was reduced by; one that reduces to zero sums those factors
    times the pivots' combinations, which are made the same way, each once,
    when a kernel vector first needs them.  The sums are the ones a carried
    combination would take, so the slots keep the same bound.
    """
    e = p.bit_length()
    rows = len(c)
    w = -(-(p * p * (rows + 1)).bit_length() // 8)
    W = 8 * w
    slot = (1 << W) - 1
    fit = (1 << (rows * W)) - 1
    series = tuple(c)
    base = [_packed_powers(series, k, p, w) for k in range(h + 1)]

    def fold(x):
        # every slot to [0, p], unchanged mod p
        while t := x >> e & hi:
            x = (x & lo) + t
        return x

    def residues(x):
        # every slot to [0, p): a folded slot p becomes 0
        x = fold(x)
        return x - ((x + ones) >> e & ones) * p

    def combination(n, factors):
        # the combination of column n, reduced by factors[i] times pivot i
        while len(combs) < len(factors):
            m, fs, inv = made[len(combs)]
            combs.append(fold(fold(combination(m, fs)) * inv))
        comb = 1 << (n * W)
        for f, pcomb in zip(factors, combs):
            if f != p:
                comb += f * pcomb
        return comb

    pivots = []  # (bit offset of the pivot row, column)
    made = []  # per pivot: its column's index, factors and scale
    combs = []  # the combinations of the first pivots, made on demand
    kernel = []
    ncols = 0
    for d in count():
        # slot masks holding 1, p = 2^e - 1 and 2^(W-e) - 1 in each of
        # `size` slots, enough for every column and combination up to d
        size = max(rows, (h + 1) * (d + 1))
        ones = int.from_bytes((b"\1" + bytes(w - 1)) * size, "little")
        lo, hi = ones * p, ones * ((1 << (W - e)) - 1)
        for k in range(h + 1):
            col = base[k] << (d * W) & fit
            factors = []
            for shift, pcol in pivots:
                f = p - (col >> shift & slot) % p
                factors.append(f)
                if f != p:
                    col += f * pcol
            col = residues(col)
            if col:
                shift = (col & -col).bit_length() - 1
                shift -= shift % W
                inv = pow(col >> shift & slot, -1, p)
                pivots.append((shift, fold(col * inv)))
                made.append((ncols, factors, inv))
            else:
                comb = combination(ncols, factors)
                kernel.append(_unpack(residues(comb), ncols + 1, w))
            ncols += 1
        yield list(kernel)


@lru_cache(maxsize=8)
def _packed_powers(c: tuple, k: int, p: int, w: int) -> int:
    """The packing of [j^k c_j mod p]_j in w-byte slots, kept for the last
    few (series, k): the orders of one Picard-Fuchs fit share their
    columns (k, d) for every k they both reach."""
    return _pack([j ** k * v % p for j, v in enumerate(c)], w)


def _pack(values: list[int], w: int) -> int:
    """The nonnegative values, each below 2^(8w), as w-byte slots of one
    int, the first value lowest."""
    return int.from_bytes(
        b"".join(v.to_bytes(w, "little") for v in values), "little")


def _unpack(x: int, n: int, w: int) -> list[int]:
    """The first n w-byte slots of the nonnegative int x, lowest first."""
    b = x.to_bytes(n * w, "little")
    return [int.from_bytes(b[i : i + w], "little") for i in range(0, n * w, w)]


def _reconstruct(a: int, p: int) -> tuple[int, int] | None:
    """(n, e) with n = a*e mod p, |n| <= B and 0 < e <= B for
    B = isqrt(p // 2), or None: Wang's rational reconstruction by the
    extended Euclidean algorithm, whose remainders r satisfy r = s*a mod p."""
    bound = isqrt(p // 2)
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(vec: list[int], c: list, h: int, d: int, p: int
          ) -> list[UniPoly] | None:
    """The polynomials p_0..p_h of degree <= d of an integer operator whose
    coefficient vector is proportional to the mod-p kernel vector vec, or
    None.

    The entries are reconstructed in turn with a running common denominator
    and scaled to integers.  The operator is returned only if it annihilates
    every fit row exactly, so that it lies in the kernel over Q.
    """
    vec = vec + [0] * ((h + 1) * (d + 1) - len(vec))
    den = 1
    nums = []
    for x in vec:
        q = _reconstruct(x * den % p, p)
        if q is None:
            return None
        n, e = q
        if e != 1:
            nums = [a * e for a in nums]
            den *= e
        nums.append(n)
    ps = [nums[k :: h + 1] for k in range(h + 1)]
    if any(_image_coefficient(ps, c, m) for m in range(len(c))):
        return None
    return [UniPoly(q) for q in ps]


def find_picard_fuchs(
    s: PowerSeries,
    max_order: int = 4,
    max_degree: int = 12,
    guard: int = 8,
) -> DiffOperator:
    """Minimal annihilating operator: order h ascending from 1, then degree d
    ascending; a candidate kernel must also annihilate the last `guard`
    coefficients, which are excluded from the fit.

    The series is scaled once to coprime integers (_primitive_scale); L is
    linear, so this does not change it, and a series times any constant is
    fitted as the series is.  Every fit matrix of order h has the same rows,
    one per coefficient outside the guard, and its columns grow with d, so
    each order runs one incremental column elimination (_kernels) modulo the
    Mersenne prime p = 2^61 - 1.  A shape whose columns stay independent
    mod p is skipped: rank_p <= rank_Q, because every minor that vanishes
    over Q vanishes mod p, so its kernel over Q is provably empty.  Where
    the kernel mod p has dimension k >= 1, every vector of it is lifted by
    rational reconstruction to an integer operator that must annihilate
    every fit row exactly.  If all k lift, they are k independent kernel
    vectors over Q, so the kernel over Q has dimension k too, the same
    columns are dependent over Q, and the first lifted vector is the one an
    elimination over Q would give.  Otherwise the prime was unlucky or too
    small for the entries: the order's elimination restarts modulo the next
    prime of _MERSENNE_EXPONENTS, a larger one, and takes the kernel of the
    same shape; the shapes it skipped stay skipped.  When the last prime
    cannot decide a shape, ValueError("operator undecided ...") names it.
    At the accepted shape the kernel must have dimension 1; otherwise the
    operator is not determined by the data and ValueError is raised, as it
    is when no shape within the bounds is accepted.
    """
    M = s.order
    scale = _primitive_scale(s.coefficients)
    c = [_exact(v * scale) for v in s.coefficients]
    fit = c[: max(M + 1 - guard, 0)]
    for h in range(1, max_order + 1):
        moduli = ((1 << e) - 1 for e in _MERSENNE_EXPONENTS)
        p = next(moduli)
        kernels = _kernels(fit, h, p)
        for d in range(0, max_degree + 1):
            ncols = (h + 1) * (d + 1)
            if ncols + guard > M + 1:
                break  # not enough data at this order
            kernel = next(kernels)
            while None in (lifts := [_lift(v, fit, h, d, p) for v in kernel]):
                # p cannot decide this shape: run the order mod the next prime
                p = next(moduli, None)
                if p is None:
                    raise ValueError(
                        f"operator undecided at order {h}, degree {d}: no "
                        f"modulus up to 2^{_MERSENNE_EXPONENTS[-1]} - 1 lifts "
                        f"its kernel"
                    )
                kernels = _kernels(fit, h, p)
                kernel = list(islice(kernels, d + 1))[-1]
            if not lifts:
                continue  # full column rank (mod p, hence over Q)
            polys = lifts[0]
            if polys[h].is_zero():
                continue  # order drops: this is a lower-order relation
            L = DiffOperator(polys)
            ps = [q.coeffs for q in L.polys]
            if all(
                _image_coefficient(ps, c, m) == 0
                for m in range(M - guard + 1, M + 1)
            ):
                if len(lifts) != 1:
                    raise ValueError(
                        f"operator not unique: kernel of dimension "
                        f"{len(lifts)} at order {h}, degree {d} (use more "
                        f"coefficients)"
                    )
                return L.normalized()
    raise ValueError("no operator found (raise bounds)")
