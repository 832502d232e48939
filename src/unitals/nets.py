"""Embedded dual k-nets and the latin squares coordinatizing dual 3-nets.

A dual k-net is a set of pairwise disjoint blocks such that the block
joining any cross-pair of points meets all of them.  Equivalently each
block beyond the first two lies wholly inside the full-point set of the
first two, which the search below tests from the meet masks alone.  A
dual 3-net yields a latin square of order n+1 whose main class
(parastrophe and isotopy closure) carries the classification:
group-based or not, cyclic or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .design import AbstractUnital
from .groups import PermGroup, compose, is_cyclic_regular, relative_to_first, structure_name
from .persp import _projections


class TooFewBlocks(ValueError):
    pass


class NotA3Net(ValueError):
    pass


@dataclass(frozen=True)
class LatinSquare:
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError(f"need {self.m} rows, got {len(self.rows)}")
        sym = set(range(self.m))
        for r in self.rows:
            if len(r) != self.m or set(r) != sym:
                raise ValueError("row is not a permutation of the symbols")
        for j in range(self.m):
            if {r[j] for r in self.rows} != sym:
                raise ValueError("column is not a permutation of the symbols")

    def serialize(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def is_dual_knet(u: AbstractUnital, blocks) -> bool:
    """Exact check of both dual k-net conditions, read off the meet masks
    and join rows.  The blocks are pairwise disjoint when each meets no
    other; then the join of two points on different blocks holds points of
    two disjoint net blocks, so it is none of them and meets each at most
    once: it must meet them all."""
    blocks = list(blocks)
    if len(blocks) < 3:
        raise TooFewBlocks("a dual k-net needs k >= 3 blocks")
    if len(set(blocks)) != len(blocks):
        return False
    points = [u.block(b) for b in blocks]  # IndexError outside 1..num_blocks
    meets = u.block_meets
    net = sum(1 << b - 1 for b in blocks)
    if any(meets[b - 1] & net != 1 << b - 1 for b in blocks):
        return False
    for i, pts in enumerate(points):
        for p in pts:
            join = u.join_row(p)
            for other in points[i + 1 :]:
                if any(meets[join[q - 1] - 1] & net != net for q in other):
                    return False
    return True


def find_dual_3nets(u: AbstractUnital) -> tuple:
    """All embedded dual 3-nets, as sorted block-index triples.

    For pairwise disjoint a, b, c and `meets = u.block_meets`, c lies inside
    the full points of (a, b) iff meets[a-1] & meets[c-1] == meets[b-1] &
    meets[c-1]: a block other than c meets c at most once, so for x off c
    the AND is the disjoint union over p in c of the joins of p to x; and p
    is a full point of (a, b) iff its n+1 joins to a are its joins to b.
    Each c keys the blocks below it by that AND: the disjoint pairs sharing
    a key without bit c (only blocks meeting c have it) are the nets whose
    largest block is c."""
    meets = u.block_meets
    nets = []
    for c, mc in enumerate(meets, start=1):
        keys = list(map(mc.__and__, meets[: c - 1]))
        if len(set(keys)) == len(keys):
            continue
        for key, count in Counter(keys).items():
            if count > 1 and not key >> c - 1 & 1:
                group = [keys.index(key) + 1]  # block ids: index + 1
                while len(group) < count:
                    group.append(keys.index(key, group[-1]) + 1)
                nets.extend((a, b, c) for a, b in combinations(group, 2) if not meets[a - 1] >> b - 1 & 1)
    return tuple(sorted(nets))


def latin_square_from_3net(u: AbstractUnital, net) -> LatinSquare:
    """Coordinate latin square of a dual 3-net, rows/columns/symbols labeled
    by the sorted point order within each block.

    Building the square is the check.  Row p is the projection of b2 onto b3
    from p in b1, which exists exactly when p is off b2 and b3 and each of its
    joins to b2 meets b3.  A latin result rules out b2 meeting b3 (that
    point's column would be constant), and its rows and columns say that the
    joins of b1 x b3 and of b2 x b3 meet the third block: a dual 3-net.
    """
    net = tuple(sorted(net))
    if len(net) != 3:
        raise NotA3Net(f"need exactly 3 blocks, got {len(net)}")
    b1, b2, b3 = net
    try:
        return LatinSquare(u.order + 1, tuple(_projections(u, b2, b3, u.block(b1))))
    except ValueError as e:  # NotAFullPoint, or a square that is not latin
        raise NotA3Net(f"blocks {net} do not form a dual 3-net") from e


def is_group_based(sq: LatinSquare) -> str | None:
    """Name of the group the square is based on, or None.

    The row maps r0^-1 r (`relative_to_first`) are m distinct maps, the
    identity among them, that send column 0 everywhere.  Closed under
    composition, they are a regular group and the square is an isotope of
    its table; conversely an isotope c(a(x) b(y)) of a group G gives the
    group of maps b^-1 L_g b.  Isotopy and parastrophy keep group-basedness:
    one test decides the main class.
    """
    maps = set(relative_to_first(sq.rows))
    if any(compose(a, b) not in maps for a in maps for b in maps):
        return None
    return structure_name(PermGroup(sq.m, maps, maps))


def is_cyclic_square(sq: LatinSquare) -> bool:
    """True when the square is based on C_m: its row maps r0^-1 r are the
    powers of one m-cycle (see `is_group_based`)."""
    return is_cyclic_regular(relative_to_first(sq.rows))


def is_cyclic_3net(u: AbstractUnital, net) -> bool:
    """True when the coordinate latin square is based on the cyclic group
    of order n+1."""
    return is_cyclic_square(latin_square_from_3net(u, net))
