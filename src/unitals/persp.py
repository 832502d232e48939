"""Full points of block pairs and the perspectivity groups they generate."""

from __future__ import annotations

from .design import AbstractUnital, block_ids
from .groups import PermGroup, closure, compose


class SameBlock(ValueError):
    pass


class NotAFullPoint(ValueError):
    pass


class NoFullPoints(ValueError):
    pass


def _full_point_masks(u: AbstractUnital, b1: int) -> list[tuple[int, int]]:
    """The kernel: (p, hits) for each point p off block b1, where bit b-1 of
    the bitset `hits` is set exactly when p is a full point of (b1, b), for
    every block b != b1.  The blocks through p that meet b1 are its joins to
    b1, so `hits` is the AND of their meet-masks, less the blocks through p.
    """
    meets, blocks = u.block_meets, u.all_blocks
    hits = [~on_p for on_p in u.point_blocks]
    for c in block_ids(meets[b1 - 1]):
        for p in blocks[c - 1]:
            hits[p - 1] &= meets[c - 1]
    return [(p, h) for p, h in enumerate(hits, start=1) if h >> (b1 - 1) & 1]  # points of b1 lose bit b1-1


def full_points(u: AbstractUnital, b1: int, b2: int) -> tuple[int, ...]:
    """All points P off both blocks whose joins to b1 each meet b2, in
    increasing order.

    Every such P defines the central projection b1 -> b2, so these are
    exactly the centers of well-defined perspectivities between the pair.
    A join of P to b1 that misses b2 is a block meeting b1 but not b2, so
    the full points are the points off b1 and b2 on no such block.
    """
    if b1 == b2:
        raise SameBlock("full points need two distinct blocks")
    u.block(b1), u.block(b2)  # IndexError outside 1..num_blocks, before a negative index wraps
    off = u.block_meets[b1 - 1] & ~u.block_meets[b2 - 1] | 1 << b1 - 1 | 1 << b2 - 1
    return tuple(p for p, on_p in enumerate(u.point_blocks, start=1) if not on_p & off)


def full_point_rows(u: AbstractUnital):
    """Yield ((b1, b2), full points) for every disjoint block pair, in the
    order of `disjoint_block_pairs`, from one kernel pass per block b1."""
    b1_row, row = None, {}
    for b1, b2 in u.disjoint_block_pairs():
        if b1 != b1_row:
            later = ~u.block_meets[b1 - 1] >> b1 << b1  # blocks c > b1 disjoint from b1, unbounded above
            b1_row, row = b1, {}
            for p, hits in _full_point_masks(u, b1):
                for c in block_ids(hits & later):
                    row.setdefault(c, []).append(p)
        yield (b1, b2), tuple(row.get(b2, ()))


def perspectivity_map(u: AbstractUnital, b1: int, center: int, b2: int) -> tuple[int, ...]:
    """The projection of b1 onto b2 with the given full point as center, as
    an image tuple: entry i is the position in b2 of the image of the i-th
    point of b1.  The center's join row names the join of each point, so
    each point of b1 is mapped by looking up its join among b2's."""
    if b1 == b2:
        raise SameBlock("a perspectivity needs two distinct blocks")
    join = u.join_row(center)
    pts1, pts2 = u.block(b1), u.block(b2)
    if center in pts1 or center in pts2:
        raise NotAFullPoint(f"point {center} lies on block {b1} or {b2}")
    target = {join[q - 1]: i for i, q in enumerate(pts2)}
    try:
        return tuple(target[join[p - 1]] for p in pts1)
    except KeyError:
        raise NotAFullPoint(f"point {center} is not a full point of ({b1},{b2})") from None


def persp_generators(u: AbstractUnital, b1: int, b2: int, fp=None) -> list[tuple[int, ...]]:
    """The maps phi_P0^-1 phi_P on the positions of b1, one per center P in
    `fp`, with P0 = fp[0].  `fp` is any nonempty set of the pair's full
    points, all of them by default; with all of them the maps generate the
    perspectivity group, since phi_Q^-1 phi_P = (phi_P0^-1 phi_Q)^-1
    (phi_P0^-1 phi_P).  The P = P0 term is the identity, which keeps the
    degree at n+1 when |fp| = 1."""
    if fp is None:
        fp = full_points(u, b1, b2)
    if not fp:
        raise NoFullPoints(f"blocks ({b1},{b2}) have no full points")
    back = perspectivity_map(u, b2, fp[0], b1)
    return [compose(perspectivity_map(u, b1, p, b2), back) for p in fp]


def persp_group(u: AbstractUnital, b1: int, b2: int, fp=None) -> PermGroup:
    """Group generated by the to-and-back projections phi_Q^-1 phi_P over all
    pairs of centers P, Q in `fp`, acting on the positions of b1; `fp` is
    any nonempty set of the pair's full points, all of them by default."""
    return closure(persp_generators(u, b1, b2, fp))
