"""Embedded dual k-nets and the latin squares coordinatizing dual 3-nets.

A dual k-net is a set of pairwise disjoint blocks such that the block
joining any cross-pair of points meets all of them.  Equivalently each
block beyond the first two lies wholly inside the full-point set of the
first two, which the search below tests from the meet masks alone.  A
dual 3-net yields a latin square of order n+1 whose main class
(parastrophe and isotopy closure) carries the classification:
group-based or not, cyclic or not.  `latin_square_from_3net` and
`is_cyclic_3net` share one checked row kernel; only the first builds a square.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations, compress

from .design import AbstractUnital
from .groups import generated, is_cyclic_regular, relative_to_first, structure_name
from .persp import projections


class LatinSquare(namedtuple("LatinSquare", "m rows")):
    """A latin square of order m >= 1, its rows a tuple of m symbol tuples;
    every row and column must be a permutation of range(m), else ValueError."""

    __slots__ = ()

    def __new__(cls, m: int, rows: tuple[tuple[int, ...], ...]):
        if m < 1:
            raise ValueError(f"a latin square has order at least 1, got {m}")
        if len(rows) != m:
            raise ValueError(f"need {m} rows, got {len(rows)}")
        sym = set(range(m))
        for r in rows:
            if len(r) != m or set(r) != sym:
                raise ValueError("row is not a permutation of the symbols")
        for j in range(m):
            if {r[j] for r in rows} != sym:
                raise ValueError("column is not a permutation of the symbols")
        return super().__new__(cls, m, rows)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here, so its square is checked too
        return cls(*iterable)

    def serialize(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def is_dual_knet(u: AbstractUnital, blocks) -> bool:
    """Exact check of both dual k-net conditions, read off the meet masks.
    The blocks are pairwise disjoint when each meets no other.  Then they
    form a net exactly when each block c lies inside the full points of
    every pair of the others, that is (see `find_dual_3nets`) when every
    other block b gives c the one key meets[b-1] & meets[c-1].  A join of
    points on B_i and B_j meets every B_l: from p on B_i the n+1 joins to
    B_l meet B_j in n+1 distinct points, so one of them is the join."""
    blocks = list(blocks)
    if len(blocks) < 3:
        raise ValueError("a dual k-net needs k >= 3 blocks")
    ids = [u.block_pos(b) for b in blocks]
    if len(set(ids)) != len(ids):
        return False
    meets = u.block_meets
    net = sum(1 << i for i in ids)
    if any(meets[i] & net != 1 << i for i in ids):
        return False
    return all(len({meets[i] & meets[c] for i in ids if i != c}) == 1 for c in ids)


def find_dual_3nets(u: AbstractUnital) -> tuple:
    """All embedded dual 3-nets, as sorted block-index triples.

    For pairwise disjoint a, b, c and `meets = u.block_meets`, c lies inside
    the full points of (a, b) iff meets[a-1] & meets[c-1] == meets[b-1] &
    meets[c-1]: a block other than c meets c at most once, so for x off c
    the AND is the disjoint union over p in c of the joins of p to x; and p
    is a full point of (a, b) iff its n+1 joins to a are its joins to b.
    Each c keys by that AND the blocks below it that miss it (the 1 digits
    of ~meets[c-1]); the disjoint pairs sharing a key are the nets topped by c."""
    meets, nets = u.block_meets, []
    for c, mc in enumerate(meets, start=1):
        below = bin(~mc & (1 << c - 1) - 1 | 1 << c - 1)[:2:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        keys = list(map(mc.__and__, compress(meets, below)))
        if len(set(keys)) == len(keys):
            continue
        ids = list(compress(range(1, c), below))
        for key, count in Counter(keys).items():
            if count > 1:
                group = [keys.index(key)]
                while len(group) < count:
                    group.append(keys.index(key, group[-1] + 1))
                group = [ids[i] for i in group]
                nets.extend((a, b, c) for a, b in combinations(group, 2) if not meets[a - 1] >> b - 1 & 1)
    return tuple(sorted(nets))


def _square_rows(u: AbstractUnital, net) -> list[tuple[int, ...]]:
    """Rows of the coordinate square of (b1, b2, b3), sorted: row p projects
    b2 onto b3 from the p-th point of b1; ValueError unless they are latin,
    that is (and then the blocks are a dual 3-net) unless a projection is
    missing or b2 meets b3.  A row is injective, as its center is off b2 and
    b3; a column repeats only if some q of b2 lies on b3, as two centers on
    b1 sent to one point of b3 share a block with q; if b2 meets b3 at z,
    z's column is constant."""
    net = tuple(sorted(net))
    if len(net) != 3:
        raise ValueError(f"need exactly 3 blocks, got {len(net)}")
    b1, b2, b3 = net
    try:
        rows = projections(u, b2, b3, u.block(b1))
    except ValueError as e:  # two equal blocks, or a center that is not a full point
        raise ValueError(f"blocks {net} do not form a dual 3-net") from e
    if u.block_meets[b2 - 1] >> b3 - 1 & 1:
        raise ValueError(f"blocks {net} do not form a dual 3-net: {b2} meets {b3}")
    return rows


def latin_square_from_3net(u: AbstractUnital, net) -> LatinSquare:
    """Coordinate latin square of a dual 3-net, labeled by the sorted point
    order within each block: the rows of `_square_rows`, already checked."""
    return LatinSquare(u.order + 1, tuple(_square_rows(u, net)))


def is_group_based(sq: LatinSquare) -> str | None:
    """Name of the group the square is based on, or None.

    The row maps r0^-1 r (`relative_to_first`) are m distinct maps, the
    identity among them, that send column 0 everywhere.  When the group
    they generate has no more than m elements, it is the maps themselves,
    a regular group, and the square is an isotope of its table;
    conversely an isotope c(a(x) b(y)) of a group G gives the group of
    maps b^-1 L_g b.  Isotopy and parastrophy keep group-basedness:
    one test decides the main class.
    """
    group = generated(sq.m, relative_to_first(sq.rows), sq.m)
    return None if group is None else structure_name(group)


def is_cyclic_3net(u: AbstractUnital, net) -> bool:
    """True when the coordinate latin square is based on the cyclic group
    of order n+1: its row maps r0^-1 r (see `is_group_based`) are the powers
    of one (n+1)-cycle, read off the kernel's rows, building no square."""
    return is_cyclic_regular(relative_to_first(_square_rows(u, net)))
