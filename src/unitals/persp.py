"""Full points of block pairs and the perspectivity groups they generate."""

from __future__ import annotations

from .design import AbstractUnital, block_ids
from .groups import PermGroup, closure, relative_to_first


class SameBlock(ValueError):
    pass


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
    i, j = u.block_pos(b1), u.block_pos(b2)
    off = u.block_meets[i] & ~u.block_meets[j] | 1 << i | 1 << j
    return tuple(p for p, on_p in enumerate(u.point_blocks, start=1) if not on_p & off)


def full_point_rows(u: AbstractUnital):
    """Yield (b1, empty, single, sets) per block b1, over the disjoint b2 > b1:
    `empty` pairs have no full point, `single` pairs one, and `sets` maps each
    other b2 to its full points, all in increasing order.  A point p off b1 is
    a full point of (b1, b2) exactly when p is off b2 and b2 meets each join
    of p to b1: AND their meet masks, and fold the results into `once` and
    `twice` masks as `AbstractUnital.secants` folds its points' blocks."""
    meets, joins = u.block_meets, [u.join_row(p) for p in u.points()]
    full = (1 << u.num_blocks) - 1
    for b1, blk in enumerate(u.all_blocks, start=1):
        later = ~meets[b1 - 1] >> b1 << b1 & full  # blocks b2 > b1 disjoint from b1
        once, twice, hits = 0, 0, []
        for p, on_p in enumerate(u.point_blocks, start=1):
            if on_p >> b1 - 1 & 1:
                continue
            h, join = later & ~on_p, joins[p - 1]
            for q in blk:
                h &= meets[join[q - 1] - 1]
            if h:
                twice |= once & h
                once |= h
                hits.append((p, h))
        sets = {c: [] for c in block_ids(twice)}
        for p, h in hits:
            for c in block_ids(h & twice):
                sets[c].append(p)
        single = once.bit_count() - twice.bit_count()
        yield b1, later.bit_count() - once.bit_count(), single, {c: tuple(fp) for c, fp in sets.items()}


def perspectivity_map(u: AbstractUnital, b1: int, center: int, b2: int) -> tuple[int, ...]:
    """The projection of b1 onto b2 with the given full point as center, as
    an image tuple: entry i is the position in b2 of the image of the i-th
    point of b1.  The center's join row names the join of each point, so
    each point of b1 is mapped by looking up its join among b2's."""
    return projections(u, b1, b2, (center,))[0]


def projections(u: AbstractUnital, b1: int, b2: int, centers) -> list[tuple[int, ...]]:
    """`perspectivity_map` from each center in turn; the blocks are checked once."""
    if b1 == b2:
        raise SameBlock("a perspectivity needs two distinct blocks")
    pts1, pts2 = u.block(b1), u.block(b2)
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
