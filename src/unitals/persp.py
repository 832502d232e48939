"""Full points of block pairs and the perspectivity groups they generate."""

from __future__ import annotations

from dataclasses import dataclass

from .design import AbstractUnital
from .groups import PermGroup, closure, compose


class SameBlock(ValueError):
    pass


class NotAFullPoint(ValueError):
    pass


class NoFullPoints(ValueError):
    pass


def full_points(u: AbstractUnital, b1: int, b2: int) -> tuple[int, ...]:
    """All points P off both blocks whose joins to b1 each meet b2.

    Every such P defines the central projection b1 -> b2, so these are
    exactly the centers of well-defined perspectivities between the pair.
    """
    if b1 == b2:
        raise SameBlock("full points need two distinct blocks")
    pts1 = u.block(b1)
    s2 = u.block_set(b2)
    excluded = u.block_set(b1) | s2
    num_points = u.num_points
    pair_block = u._pair_block
    block_sets = u._block_sets
    out = []
    for p in range(1, num_points + 1):
        if p in excluded:
            continue
        row = (p - 1) * num_points
        for q in pts1:
            if not (block_sets[pair_block[row + q - 1] - 1] & s2):
                break
        else:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class Perspectivity:
    center: int
    source: int
    target: int
    images: tuple[int, ...]  # position in source block -> position in target block


def perspectivity_map(u: AbstractUnital, b1: int, center: int, b2: int) -> Perspectivity:
    """The projection of b1 onto b2 with the given full point as center."""
    pts1, pts2 = u.block(b1), u.block(b2)
    excluded = u.block_set(b1) | u.block_set(b2)
    if center in excluded:
        raise NotAFullPoint(f"point {center} lies on block {b1} or {b2}")
    pos2 = {p: i for i, p in enumerate(pts2)}
    images = []
    for q in pts1:
        blk = u.block_set(u.block_through(center, q))
        hit = blk & u.block_set(b2)
        if not hit:
            raise NotAFullPoint(f"point {center} is not a full point of ({b1},{b2})")
        images.append(pos2[next(iter(hit))])
    assert len(set(images)) == len(images)
    return Perspectivity(center=center, source=b1, target=b2, images=tuple(images))


def persp_group(u: AbstractUnital, b1: int, b2: int, fp=None) -> PermGroup:
    """Group generated by the to-and-back projections over all pairs of
    full points, acting on the positions of b1.

    Precomputed full points may be passed to avoid rescanning.
    """
    if fp is None:
        fp = full_points(u, b1, b2)
    if not fp:
        raise NoFullPoints(f"blocks ({b1},{b2}) have no full points")
    forward = {p: perspectivity_map(u, b1, p, b2).images for p in fp}
    backward = {p: perspectivity_map(u, b2, p, b1).images for p in fp}
    return closure([compose(forward[p], backward[q]) for p in fp for q in fp])
