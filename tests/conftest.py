import pytest

from unitals.design import block_ids
from unitals.persp import full_point_row
from unitals.formats import builtin_appendix_unital
from unitals.hermitian import hermitian_unital
from hermitian_geometry import all_polar_triangles


def pair_full_points(u, disjoint=True) -> dict:
    """{(b1, b2): full points} over the block pairs b1 < b2, the disjoint
    ones only or every pair, from one `full_point_row` per b1."""
    full = (1 << u.num_blocks) - 1
    out = {}
    for b1, meets in enumerate(u.block_meets, start=1):
        later = (~meets if disjoint else full) >> b1 << b1 & full
        fps = {b2: [] for b2 in block_ids(later)}
        for p, h in full_point_row(u, b1, later):
            for b2 in block_ids(h):
                fps[b2].append(p)
        out.update(((b1, b2), tuple(fp)) for b2, fp in fps.items())
    return out


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
    return pair_full_points(h4.unital)


@pytest.fixture(scope="session")
def appendix_pair_fp(appendix):
    return pair_full_points(appendix)


@pytest.fixture(scope="session")
def h4_triangles(h4):
    return all_polar_triangles(h4)
