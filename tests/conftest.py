import pytest

from unitals.persp import full_points
from unitals.formats import builtin_appendix_unital
from unitals.hermitian import hermitian_unital
from hermitian_geometry import all_polar_triangles


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
    u = h4.unital
    return {(b1, b2): full_points(u, b1, b2) for b1, b2 in u.disjoint_block_pairs()}


@pytest.fixture(scope="session")
def appendix_pair_fp(appendix):
    return {(b1, b2): full_points(appendix, b1, b2) for b1, b2 in appendix.disjoint_block_pairs()}


@pytest.fixture(scope="session")
def h4_triangles(h4):
    return all_polar_triangles(h4)
