from functools import cache

import pytest

from unitals.design import block_ids, validate_unital
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


@cache
def full_points_by_definition(u) -> dict:
    """Full points of every ordered block pair, from the definition alone: a
    point P off both blocks is full exactly when every block through P that
    meets b1 also meets b2.  Uses only the block list.  Computed once per
    unital, for the tests that read it."""
    points = range(1, u.num_points + 1)
    blocks = [frozenset(b) for b in u.all_blocks]
    meets = [frozenset(j for j, c in enumerate(blocks) if b & c) for b in blocks]
    through = {p: [j for j, c in enumerate(blocks) if p in c] for p in points}
    out = {}
    for i, bi in enumerate(blocks):
        joins = [(p, frozenset(c for c in through[p] if c in meets[i])) for p in points if p not in bi]
        for j, bj in enumerate(blocks):
            if j != i:
                out[i + 1, j + 1] = tuple(p for p, js in joins if p not in bj and js <= meets[j])
    return out


def relabelled(u, rng):
    """A copy with the points relabelled and the blocks shuffled, and the
    map from each block's old index to its new one."""
    labels = list(range(1, u.num_points + 1))
    rng.shuffle(labels)
    order = list(range(1, u.num_blocks + 1))
    rng.shuffle(order)  # new block i is old block order[i-1]
    copy = validate_unital(u.num_points, [[labels[p - 1] for p in u.block(b)] for b in order])
    return copy, {old: new for new, old in enumerate(order, start=1)}


def block_list_text(u, name) -> str:
    """The unital as a text block list: a comment line, then one block a line."""
    header = f"# {name}: order {u.order}, {u.num_points} points, {u.num_blocks} blocks\n"
    return header + "".join(" ".join(map(str, blk)) + "\n" for blk in u.all_blocks)


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
