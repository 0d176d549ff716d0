import pytest

from polarb import checks


@pytest.fixture(scope="session")
def graph():
    """The cross graph of a space, read from the named checks' per-space memo."""
    return lambda family, d, q: checks._graph(family, d, q)


@pytest.fixture(scope="session")
def catalog(graph):
    """The generator catalog each memoized graph holds."""
    return lambda family, d, q: graph(family, d, q).rel.cat


@pytest.fixture(scope="session")
def relations(graph):
    """The codimension matrix each memoized graph holds."""
    return lambda family, d, q: graph(family, d, q).rel
