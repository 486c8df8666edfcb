"""Mordell-Weil data of the elliptic surface: section positions on the fibre
at infinity, the Shioda-Tate rank, height pairings of sections and torsion
between the component-group image of the torsion sections and Shioda's
determinant identity; the fibre invariants r and det come from
`KodairaType`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd as int_gcd, isqrt, prod

from .algebra import _primitive_scale
from .fibration import FibreConfiguration
from .polygon import Polygon, _fan_sequence


def section_positions(P: Polygon) -> list[int]:
    """Component indices on the infinity fibre met by the sections, the zero
    section's 0 first.

    There is one section per edge of P, i.e. per vertex of P-polar; the
    cycle of components of the I_m fibre is the boundary walk of P-polar, in
    either direction, so consecutive sections are the lattice lengths of its
    edges apart.  Those lengths are the deficits 2 - a_i of P's fan
    sequence at its vertices, in the same cyclic order: the edge of P-polar
    dual to the vertex b_i of P has lattice length cross(d_in, d_out)
    (`polygon._fan_sequence`).  Of the rotations and reversals of these
    gaps, the one read from the zero section ends with the minimal gap and
    is lexicographically greatest among those: a choice that depends on the
    GL2(Z) class of P alone, with no canonical form.
    """
    gaps = [2 - a for a in _fan_sequence(P) if a != 2]
    m = min(gaps)
    seq = max(s[i + 1:] + s[:i + 1] for s in (gaps, gaps[::-1])
              for i in range(len(gaps)) if s[i] == m)
    return list(accumulate(seq[:-1], initial=0))


def contribution(n: int, i: int, j: int) -> Fraction:
    """contr_{I_n} of two sections on components i and j: i (n - j) / n for
    i <= j (arguments are swapped if needed)."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("component indices must lie in [0, n)")
    if i > j:
        i, j = j, i
    return Fraction(i * (n - j), n)


def shioda_tate_rank(config: FibreConfiguration) -> int:
    """rank MW = 8 - sum of the root-lattice ranks of all fibres."""
    total = config.r_total()
    if total > 8:
        raise ValueError("fibre lattice ranks exceed 8")
    return 8 - total


def height_matrix(P: Polygon, config: FibreConfiguration,
                  positions: list[int]) -> list[list[Fraction]]:
    """Height pairing matrix over the non-zero sections; `positions` is
    `section_positions(P)`.

    With the constructed sections pairwise disjoint and disjoint from the
    zero section: <s, s> = 2 - contr(m, p, p) and <s, t> = 1 - contr(m, p, q)
    where contributions come from the I_m fibre at infinity alone; any other
    reducible fibre would contribute unknown incidences and is refused.
    """
    for loc, t, _ in config.entries:
        if loc != "infinity" and t.r > 0:
            raise ValueError("section/component incidence unknown")
    m = 12 - P.volume()
    mat = []
    for p in positions[1:]:
        row = []
        for q in positions[1:]:
            base = 2 if p == q else 1
            row.append(base - contribution(m, p, q))
        mat.append(row)
    return mat


# ---------------------------------------------------------------------------
# the Mordell-Weil group
# ---------------------------------------------------------------------------


class MWReport:
    __slots__ = ("rank", "torsion_order", "group", "height", "det_trivial",
                 "positions")

    def __init__(self, rank, torsion_order, group, height, det_trivial,
                 positions):
        self.rank = rank
        self.torsion_order = torsion_order
        self.group = group
        self.height = height
        self.det_trivial = det_trivial
        self.positions = positions

    def __repr__(self):
        return (
            f"MWReport(rank={self.rank}, torsion={self.torsion_order}, "
            f"group={self.group}, detT={self.det_trivial}, "
            f"positions={self.positions})"
        )


def _group_name(rank: int, torsion: int) -> str:
    if rank == 0:
        return f"Z/{torsion}" if torsion > 1 else "0"
    free = "Z" if rank == 1 else f"Z^{rank}"
    return free + (f" x Z/{torsion}" if torsion > 1 else "")


def mw_group(P: Polygon, config: FibreConfiguration) -> MWReport:
    """Rank from Shioda-Tate; torsion from one sandwich at every rank.

    Lower bound: the order of the subgroup of Z/m, m = 12 - Vol(P), that
    the known torsion sections generate by their components on the I_m
    fibre at infinity: all sections at rank 0, otherwise those of height
    2 - contr(m, p, p) = 0.  Upper bound: the largest t with t^2 | N, by
    Shioda's identity |tors|^2 [MW/tors : <S>]^2 = det T det H(S) for the
    unimodular Neron-Severi lattice.  N = det T, the product of the fibres'
    component-group orders `t.det`, the infinity fibre included; at rank 1
    with the heights known, N is det T times the gcd of H(S)'s entries,
    gcd(k)^2 h for a Gram matrix k_i k_j h, the det H of <S>'s generator.
    The bounds must agree.  The sections' components come from
    `section_positions`, computed once, read off P's coordinates as they
    are, with no canonical form."""
    rank = shioda_tate_rank(config)
    positions = section_positions(P)
    m = 12 - P.volume()
    try:
        height = height_matrix(P, config, positions) if rank else None
    except ValueError:
        height = None
    lower = m // int_gcd(m, *(p for p in positions if rank == 0
                               or 2 - contribution(m, p, p) == 0))
    det_t = prod(t.det ** c for _, t, c in config.entries)
    n = Fraction(det_t)
    if rank == 1 and height is not None:
        n /= _primitive_scale([h for row in height for h in row])
    if n.denominator != 1:
        raise ValueError(f"Shioda's identity fails: det T det H(S) = {n}")
    upper = next(t for t in range(isqrt(n.numerator), 0, -1)
                 if n.numerator % (t * t) == 0)
    if lower != upper:
        raise ValueError(f"torsion undetermined: bounds ({lower}, {upper})")
    return MWReport(rank, lower, _group_name(rank, lower), height, det_t,
                    positions)
