from fractions import Fraction

import pytest

from reflexo import mutation
from reflexo.algebra import MPoly, resultant
from reflexo.catalog import NAMES, load_catalog
from reflexo.fibration import classify_fibres


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def configs(catalog):
    """classify_fibres for all 16 polygons, computed once per session."""
    return {name: classify_fibres(catalog[name]) for name in NAMES}


@pytest.fixture(scope="session")
def res_x():
    """Res_x of two UniPolys in x, taken through the MPoly resultant, as a
    Fraction."""
    def res(p, q):
        r = resultant(MPoly.from_unipoly(p, "x"),
                      MPoly.from_unipoly(q, "x"), "x")
        assert r.is_const()
        return Fraction(r.terms.get((0, 0, 0), 0))
    return res


@pytest.fixture
def fresh_class():
    """mutation_class as a search: the per-process memo of finished
    components is emptied when the fixture is set up and before each call,
    so no answer, here or from mutation_classes, comes from an earlier
    search."""
    mutation._components.clear()

    def search(P):
        mutation._components.clear()
        return mutation.mutation_class(P)
    return search
