import pytest

from unitals.persp import full_point_rows
from unitals.formats import builtin_appendix_unital
from unitals.hermitian import all_polar_triangles, hermitian_unital


@pytest.fixture(scope="session")
def appendix():
    return builtin_appendix_unital()


@pytest.fixture(scope="session")
def h2():
    return hermitian_unital(2)


@pytest.fixture(scope="session")
def h3():
    return hermitian_unital(3)


@pytest.fixture(scope="session")
def h4():
    return hermitian_unital(4)


@pytest.fixture(scope="session")
def h4_pair_fp(h4):
    """Full points of every disjoint block pair of H(4)."""
    return dict(full_point_rows(h4.unital))


@pytest.fixture(scope="session")
def appendix_pair_fp(appendix):
    return dict(full_point_rows(appendix))


@pytest.fixture(scope="session")
def h4_triangles(h4):
    return set(all_polar_triangles(h4))
