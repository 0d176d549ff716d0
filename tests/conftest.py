import pytest

from polarb.checks import _catalog
from polarb.scheme import build_relations

_RELATIONS = {}


@pytest.fixture(scope="session")
def catalog():
    """Memoized catalog factory, the same memo the named checks use."""
    return _catalog


@pytest.fixture(scope="session")
def relations(catalog):
    def get(family, d, q):
        key = (family, d, q)
        if key not in _RELATIONS:
            _RELATIONS[key] = build_relations(catalog(family, d, q))
        return _RELATIONS[key]

    return get
