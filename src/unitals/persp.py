"""Full points of block pairs and the perspectivity groups they generate."""

from __future__ import annotations

from .design import AbstractUnital
from .groups import PermGroup, closure, relative_to_first


class SameBlock(ValueError):
    pass


def full_point_row(u: AbstractUnital, b1: int, partners: int) -> list[tuple[int, int]]:
    """The (p, h) for each point p off b1 that is a full point of some pair
    (b1, b2) with b2 in the bitset `partners`, in increasing order, with h
    the bitset of those b2.  p is full for (b1, b2) when it is off b2 and
    each join of p to b1 meets b2, so h is the partners off p ANDed with the
    meet masks of those joins.  Partners may meet b1; b1's own bit, which
    every join meets, is dropped."""
    i = u.block_pos(b1)
    meets, partners = u.block_meets, partners & ~(1 << i)
    rows = [u.join_row(q) for q in u.all_blocks[i]]  # entry p-1 of row q: the join of p and q
    hits = []
    for p, on_p in enumerate(u.point_blocks, start=1):
        if on_p >> i & 1:
            continue
        h = partners & ~on_p
        for row in rows:
            h &= meets[row[p - 1] - 1]
            if not h:
                break
        else:
            hits.append((p, h))
    return hits


def full_points(u: AbstractUnital, b1: int, b2: int) -> tuple[int, ...]:
    """All points P off both blocks whose joins to b1 each meet b2, in
    increasing order: the centers of the well-defined perspectivities
    b1 -> b2.  It is b1's `full_point_row` over b2 alone, after both ids
    are checked."""
    if u.block_pos(b1) == u.block_pos(b2):
        raise SameBlock("full points need two distinct blocks")
    return tuple(p for p, _ in full_point_row(u, b1, 1 << b2 - 1))


def projections(u: AbstractUnital, b1: int, b2: int, centers) -> list[tuple[int, ...]]:
    """The projection of b1 onto b2 from each full point in `centers`: entry
    i of its image tuple is the position in b2 of the join of the center and
    the i-th point of b1.  The blocks are checked once, then each center."""
    pts1, pts2 = u.block(b1), u.block(b2)
    if b1 == b2:
        raise SameBlock("a perspectivity needs two distinct blocks")
    maps = []
    for center in centers:
        join = u.join_row(center)
        if center in pts1 or center in pts2:
            raise ValueError(f"point {center} lies on block {b1} or {b2}")
        joins2 = [join[q - 1] for q in pts2]  # distinct, as the center is off b2
        try:
            maps.append(tuple([joins2.index(join[p - 1]) for p in pts1]))
        except ValueError:
            raise ValueError(f"point {center} is not a full point of ({b1},{b2})") from None
    return maps


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
        raise ValueError(f"blocks ({b1},{b2}) have no full points")
    return relative_to_first(projections(u, b1, b2, fp))


def persp_group(u: AbstractUnital, b1: int, b2: int, fp=None) -> PermGroup:
    """The group of the (b1, b2) perspectivities centered in `fp`, acting on
    the positions of b1: the closure of `persp_generators`, which holds every
    to-and-back projection phi_Q^-1 phi_P for centers P, Q in `fp`.  `fp` is
    any nonempty set of the pair's full points, all of them by default."""
    return closure(persp_generators(u, b1, b2, fp))
