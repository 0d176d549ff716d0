from functools import cache

import pytest

from polarb.checks import _catalog
from polarb.extremal import cross_graph


@pytest.fixture(scope="session")
def catalog():
    """Memoized catalog factory, the same memo the named checks use."""
    return _catalog


@pytest.fixture(scope="session")
def graph(catalog):
    """Memoized cross graph factory over the catalog memo."""
    return cache(lambda family, d, q: cross_graph(catalog(family, d, q)))


@pytest.fixture(scope="session")
def relations(graph):
    """The codimension matrix each memoized graph holds."""
    return lambda family, d, q: graph(family, d, q).rel
