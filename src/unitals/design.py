"""Abstract unitals: 2-(n^3+1, n+1, 1) block designs and their incidence index.

Points and blocks are 1-based, as in the published block listings.  Which
blocks hold which points is kept as bitsets over blocks (bit i-1 for block
i), and join rows give the block through two points.  `validate_unital` checks
every design axiom and is how an AbstractUnital is built; the constructor
itself checks nothing.  The package never mutates an instance once built.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations


class NotAUnital(ValueError):
    """The given point/block data violates the unital design axioms."""


def block_ids(mask: int):
    """The blocks of a bitset over blocks (bit i-1 for block i), in increasing order."""
    if mask < 0:  # infinitely many set bits
        raise ValueError(f"negative block mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


class AbstractUnital:
    """`point_blocks[p-1]` is the bitset of the blocks through point p and
    `block_meets[i-1]` that of the blocks meeting block i, itself included."""

    __slots__ = ("order", "num_points", "point_blocks", "block_meets", "_blocks", "_join_rows")

    def __init__(self, order, num_points, blocks, join_rows):
        self.order = order
        self.num_points = num_points
        self._blocks = blocks
        self._join_rows = join_rows
        through = [0] * num_points
        for i, blk in enumerate(blocks):
            for p in blk:
                through[p - 1] |= 1 << i
        self.point_blocks = tuple(through)
        self.block_meets = tuple(reduce(int.__or__, (through[p - 1] for p in blk)) for blk in blocks)

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def all_blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    def block_pos(self, i: int) -> int:
        """Position i-1 of block i; IndexError for an id that is not an int (a
        bool or a float included) or lies outside 1..num_blocks, where Python would wrap."""
        if type(i) is not int or not 1 <= i <= len(self._blocks):
            raise IndexError(f"block index {i} outside 1..{len(self._blocks)}")
        return i - 1

    def block(self, i: int) -> tuple[int, ...]:
        """Points of block i (1-based index)."""
        return self._blocks[self.block_pos(i)]

    def point_pos(self, p: int) -> int:
        """Position p-1 of point p; IndexError as in `block_pos`, outside 1..num_points."""
        if type(p) is not int or not 1 <= p <= self.num_points:
            raise IndexError(f"point id {p} outside 1..{self.num_points}")
        return p - 1

    def join_row(self, p: int) -> tuple[int, ...]:
        """Entry q-1 is the index of the block through points p and q (0 at q = p)."""
        return self._join_rows[self.point_pos(p)]

    def secants(self, points) -> int:
        """The bitset of the blocks holding at least two of the given points;
        each pair of the points lies on exactly one of them.  Folds the
        points' `point_blocks` into `once` (the blocks holding one or more of
        them) and `twice`.  ValueError for a point given twice."""
        once = twice = seen = 0
        for p in points:
            i = self.point_pos(p)
            if seen >> i & 1:
                raise ValueError(f"point {p} is given twice")
            seen |= 1 << i
            mask = self.point_blocks[i]
            twice |= once & mask
            once |= mask
        return twice

    def blocks_disjoint(self, i: int, j: int) -> bool:
        return not self.block_meets[self.block_pos(i)] >> self.block_pos(j) & 1

    def disjoint_block_pairs(self):
        """All unordered disjoint block pairs (i, j) with i < j."""
        full = (1 << self.num_blocks) - 1
        for i, meets in enumerate(self.block_meets, start=1):
            yield from ((i, j) for j in block_ids(~meets >> i << i & full))

    def __repr__(self) -> str:
        return f"AbstractUnital(order={self.order}, points={self.num_points}, blocks={self.num_blocks})"


def validate_unital(num_points: int, raw_blocks) -> AbstractUnital:
    """Validate a block list as a 2-(n^3+1, n+1, 1) design and index it.

    Point ids and the point count must be ints (not bools or floats).
    Infers the order n from the block size, checks the point count, the
    block count, and that every unordered point pair is covered exactly
    once.  Raises NotAUnital with a specific reason otherwise.
    """
    if type(num_points) is not int:
        raise NotAUnital(f"point count {num_points!r} is not an int")
    blocks = [tuple(b) for b in raw_blocks]
    for idx, blk in enumerate(blocks, start=1):
        if not all(type(p) is int for p in blk):
            raise NotAUnital(f"block {idx} has a point id that is not an int: {list(blk)!r}")
    blocks = [tuple(sorted(b)) for b in blocks]
    if not blocks:
        raise NotAUnital("empty block list")
    size = len(blocks[0])
    n = size - 1
    if n < 2:
        raise NotAUnital(f"block size {size} gives order {n} < 2")
    if num_points != n**3 + 1:
        raise NotAUnital(f"point count {num_points} != n^3+1 = {n**3 + 1} for order {n}")
    expected_blocks = n * n * (n * n - n + 1)
    if len(blocks) != expected_blocks:
        raise NotAUnital(f"block count {len(blocks)} != n^2(n^2-n+1) = {expected_blocks}")

    rows = [[0] * num_points for _ in range(num_points)]
    for idx, blk in enumerate(blocks, start=1):
        if len(blk) != size:
            raise NotAUnital(f"block {idx} has size {len(blk)} != {size}")
        if len(set(blk)) != size:
            raise NotAUnital(f"block {idx} repeats a point")
        if blk[0] < 1 or blk[-1] > num_points:
            raise NotAUnital(f"block {idx} has a point id outside 1..{num_points}")
        for p, q in combinations(blk, 2):
            if rows[p - 1][q - 1]:
                raise NotAUnital(f"pair ({p},{q}) covered by blocks {rows[p - 1][q - 1]} and {idx}")
            rows[p - 1][q - 1] = rows[q - 1][p - 1] = idx
    # no pair twice: the n^2(n^2-n+1) blocks cover n^2(n^2-n+1) * n(n+1)/2 = (n^3+1)n^3/2 pairs, all of them

    return AbstractUnital(n, num_points, tuple(blocks), tuple(map(tuple, rows)))
