"""The named catalog of the 16 reflexive polygons.

Coordinates were fixed by enumerating all classes and matching each to the
naming constraints: volume (the digit), vertex count / edge lengths, the dual
pairings 3<->9, 4i<->8i, 5i<->7i, exact self-duality of 6c and 6d, and the
chart equations the case analysis quotes for 4a, 5a and 6b.

Note on 4b: the source analysis lists its fourth lattice point as (-1, 0),
which would put the origin on the boundary and contradicts the quadric
relation x0^2 = x2*x4 used right after; the relation forces (0, -1), which is
what the catalog stores.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .polygon import Polygon, _dihedral_min, _fan_key, _fan_sequence

NAMES = [
    "3", "4a", "4b", "4c", "5a", "5b", "6a", "6b",
    "6c", "6d", "7a", "7b", "8a", "8b", "8c", "9",
]


@cache
def load_catalog() -> dict[str, Polygon]:
    """Name -> Polygon for the 16 reflexive classes, read once from the
    shipped polygons.json."""
    path = os.path.join(os.path.dirname(__file__), "polygons.json")
    with open(path) as fh:
        text = fh.read()
    return {
        entry["name"]: Polygon._from_ccw(entry["vertices"])
        for entry in json.loads(text)
    }


def get(name: str) -> Polygon:
    cat = load_catalog()
    if name not in cat:
        raise KeyError(f"unknown polygon {name!r}; valid names: {', '.join(NAMES)}")
    return cat[name]


def name_of(Q: Polygon) -> str:
    """Name of the catalog class of Q (any coordinates), looked up by fan
    key; KeyError unless Q is reflexive, as the key names the class of a
    reflexive polygon only, and every reflexive polygon is one of the 16."""
    if not Q.is_reflexive():
        raise KeyError("polygon not in catalog")
    return _names_by_key()[_fan_key(Q)]


@cache
def _names_by_key() -> dict[tuple, str]:
    """Fan key -> name of the shipped polygons; built by the first name_of
    call, a constant of the catalog afterwards."""
    return {_fan_key(P): name for name, P in load_catalog().items()}


def _dual_fan_sequence(a: list[int]) -> list[int]:
    """The fan sequence of P° from the fan sequence a of a reflexive P
    that starts at a vertex, by the walk that dual_name states."""
    corners = [i for i, x in enumerate(a) if x != 2] + [len(a)]
    out = []
    for i, j in zip(corners, corners[1:]):
        out += [2 - (j - i)] + [2] * (1 - a[j % len(a)])
    return out


def dual_name(name: str) -> str:
    """Name of the class of the polar dual P° of the named P, looked up by
    the fan key of P°'s fan sequence as read off P's own: no dual is built.

    Walk the edges e of P counterclockwise; for each, ending at the vertex
    w, append 2 - l(e) and then d(w) - 1 entries 2, where l(e) is e's
    lattice length and d(w) = 2 - a(w) >= 1 the deficit of w.  In P's fan
    sequence the vertices are the entries other than 2, and the l(e) - 1
    entries between two of them are e's inner points.  The result is P°'s
    fan sequence: P°'s vertices are the inner normals n_e of P's edges in
    the same order, and the dual edge of a vertex w joins the normals
    n_in, n_out of the edges into and out of w.  A reflexive polygon has
    cross(p, q) = gcd(q - p) on each edge p -> q.  On P° this makes the
    dual edge of w of length cross(n_in, n_out) = cross(d_in, d_out) = d(w),
    as primitive normals are the primitive edge directions turned a quarter
    turn, which keeps cross.  The dual edge of a vertex u lies on the line
    <., u> = -1 with u primitive, so its direction is u turned a quarter
    turn, and the turn of P° at n_e, for e from u to w, is
    cross(u, w) = l(e) by the same identity on P: n_e has deficit l(e)."""
    dual = _dual_fan_sequence(_fan_sequence(get(name)))
    return _names_by_key()[_dihedral_min(dual)]
