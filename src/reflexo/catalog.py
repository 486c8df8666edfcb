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

from .polygon import Polygon, _fan_key, polar_dual

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


def dual_name(name: str) -> str:
    """Name of the class of the polar dual."""
    return name_of(polar_dual(get(name)))
