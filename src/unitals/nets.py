"""Embedded dual k-nets and the latin squares coordinatizing dual 3-nets.

A dual k-net is a set of pairwise disjoint blocks such that the block
joining any cross-pair of points meets all of them.  Equivalently each
block beyond the first two lies wholly inside the full-point set of the
first two, which is how the search below discovers them.  A dual 3-net
yields a latin square of order n+1 whose main class (parastrophe and
isotopy closure) carries the classification: group-based or not, cyclic
or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .design import AbstractUnital, block_ids
from .groups import PermGroup, compose, structure_name
from .persp import full_point_rows, persp_group, perspectivity_map


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
    """Exact check of both dual k-net conditions."""
    blocks = list(blocks)
    if len(blocks) < 3:
        raise TooFewBlocks("a dual k-net needs k >= 3 blocks")
    if len(set(blocks)) != len(blocks):
        return False
    sets = [u.block_set(b) for b in blocks]
    for s1, s2 in combinations(sets, 2):
        if s1 & s2:
            return False
    for (i, si), (j, sj) in combinations(list(enumerate(sets)), 2):
        for p in si:
            for q in sj:
                joining = u.block_set(u.block_through(p, q))
                if any(len(joining & s) != 1 for s in sets):
                    return False
    return True


def blocks_inside(u: AbstractUnital, point_set) -> tuple[int, ...]:
    """Indices of blocks wholly contained in the given point set."""
    pts = set(point_set)
    return tuple(c for c in block_ids(u.secants(pts)) if pts.issuperset(u.block(c)))


def find_dual_3nets(u: AbstractUnital) -> tuple:
    """All embedded dual 3-nets, as sorted block-index triples.

    For every disjoint pair streamed from `full_point_rows`, any block
    wholly inside the full-point set completes the pair to a 3-net; each
    net is taken from its two smallest blocks.
    """
    nets = []
    for (b1, b2), fp in full_point_rows(u):
        if len(fp) > u.order:  # only these can hold a block
            nets.extend(tuple(sorted((b1, b2, c))) for c in blocks_inside(u, fp) if c > max(b1, b2))
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
        return LatinSquare(u.order + 1, tuple(perspectivity_map(u, b2, p, b3) for p in u.block(b1)))
    except ValueError as e:  # NotAFullPoint, or a square that is not latin
        raise NotA3Net(f"blocks {net} do not form a dual 3-net") from e


def is_group_based(sq: LatinSquare) -> str | None:
    """Name of the group the square is based on, or None.

    With the symbols relabelled so that row 0 reads 0..m-1, each row r is
    the column map r0^-1 r: m distinct maps, the identity among them, that
    send column 0 everywhere.  Closed under composition, they are a regular
    group and the square is an isotope of its table; conversely an isotope
    c(a(x) b(y)) of a group G gives the group of maps b^-1 L_g b.  Isotopy
    and parastrophy keep group-basedness: one test decides the main class.
    """
    relabel = [0] * sq.m
    for j, s in enumerate(sq.rows[0]):
        relabel[s] = j
    maps = {tuple(relabel[x] for x in row) for row in sq.rows}
    if any(compose(a, b) not in maps for a in maps for b in maps):
        return None
    return structure_name(PermGroup(sq.m, maps, maps))


def satisfies_quadrangle_criterion(sq: LatinSquare) -> bool:
    """Independent oracle for group-basedness (Frolov's quadrangle criterion).

    Whenever two quadrangles of cells agree in three products, they agree in
    the fourth.  Uses row/column inverses to enumerate only consistent cell
    quadruples.
    """
    rows = sq.rows
    m = sq.m
    row_inv = [[0] * m for _ in range(m)]  # row_inv[a][v] = column where row a holds v
    col_inv = [[0] * m for _ in range(m)]  # col_inv[b][v] = row where column b holds v
    for a in range(m):
        for b in range(m):
            v = rows[a][b]
            row_inv[a][v] = b
            col_inv[b][v] = a
    for a1 in range(m):
        for b1 in range(m):
            v = rows[a1][b1]
            for a2 in range(m):
                b2 = row_inv[a2][v]
                for b3 in range(m):
                    b4 = row_inv[a2][rows[a1][b3]]
                    for a3 in range(m):
                        a4 = col_inv[b2][rows[a3][b1]]
                        if rows[a3][b3] != rows[a4][b4]:
                            return False
    return True


def is_cyclic_3net(u: AbstractUnital, net) -> bool:
    """True when the coordinate latin square is based on the cyclic group
    of order n+1."""
    name = is_group_based(latin_square_from_3net(u, net))
    return name == f"C{u.order + 1}"


def persp_groups_of_3net(u: AbstractUnital, net) -> dict:
    """Perspectivity groups of all six ordered block pairs of a 3-net."""
    net = tuple(sorted(net))
    out = {}
    for b1 in net:
        for b2 in net:
            if b1 != b2:
                out[(b1, b2)] = persp_group(u, b1, b2)
    return out
