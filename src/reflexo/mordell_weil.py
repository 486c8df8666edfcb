"""Mordell-Weil data of the elliptic surface: section positions on the fibre
at infinity, the Shioda-Tate rank, height pairings of sections and torsion
via the component-group sandwich; the fibre invariants r and det come from
`KodairaType`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd as int_gcd

from .fibration import FibreConfiguration
from .polygon import Polygon, polar_dual


def section_positions(P: Polygon) -> list[int]:
    """Component indices on the infinity fibre met by the sections, the zero
    section's 0 first.

    There is one section per edge of P, i.e. per vertex of P-polar; the
    cycle of components of the I_m fibre is the boundary walk of P-polar, in
    either direction, so consecutive sections are the lattice lengths of its
    edges apart.  Of the rotations and reversals of these gaps, the one read
    from the zero section ends with the minimal gap and is lexicographically
    greatest among those: a choice that depends on the GL2(Z) class of P
    alone, with no canonical form.
    """
    gaps = [e.lattice_length for e in polar_dual(P).edges()]
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
    """Rank from Shioda-Tate; torsion from the sandwich between the image of
    the known sections in the component group of the infinity fibre (lower
    bound) and determinant divisibility of the trivial lattice (upper): the
    torsion order squared divides det T, the product of the fibres'
    component-group orders `t.det`, the infinity fibre included.  The
    sections' components come from `section_positions`, computed once and
    read off P's coordinates as they are, with no canonical form."""
    rank = shioda_tate_rank(config)
    positions = section_positions(P)
    m = 12 - P.volume()
    g = m
    for p in positions:
        g = int_gcd(g, p)
    lower = m // g
    det_t = 1
    for _, t, c in config.entries:
        det_t *= t.det ** c
    upper = max(n for n in range(1, det_t + 1) if det_t % (n * n) == 0)

    if rank == 0:
        if lower != upper:
            raise ValueError(
                f"torsion undetermined: bounds ({lower}, {upper})"
            )
        torsion = lower
        height = None
    else:
        # torsion among the known sections: those of height zero
        torsion_positions = [0]
        for p in positions:
            if p and 2 - contribution(m, p, p) == 0:
                torsion_positions.append(p)
        gg = m
        for p in torsion_positions:
            gg = int_gcd(gg, p)
        torsion = m // gg
        if torsion > upper:  # pragma: no cover - sandwich sanity
            raise ValueError("torsion bounds inconsistent")
        try:
            height = height_matrix(P, config, positions)
        except ValueError:
            height = None
    return MWReport(rank, torsion, _group_name(rank, torsion), height, det_t,
                    positions)
