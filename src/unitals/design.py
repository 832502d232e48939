"""Abstract unitals: 2-(n^3+1, n+1, 1) block designs with O(1) pair lookup.

Points are 1-based integers 1..n^3+1 and block indices are 1-based, which
matches the usual published block listings.  Construction validates all
design axioms eagerly; an AbstractUnital instance is immutable and can be
queried concurrently.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations


class NotAUnital(ValueError):
    """The given point/block data violates the unital design axioms."""


def block_ids(mask: int):
    """The blocks of a bitset over blocks (bit i-1 for block i), in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


class AbstractUnital:
    """`point_blocks[p-1]` is the bitset of the blocks through point p and
    `block_meets[i-1]` that of the blocks meeting block i, itself included."""

    __slots__ = ("order", "num_points", "point_blocks", "block_meets", "_blocks", "_block_sets", "_pair_block")

    def __init__(self, order, num_points, blocks, pair_block):
        self.order = order
        self.num_points = num_points
        self._blocks = blocks
        self._block_sets = tuple(frozenset(b) for b in blocks)
        self._pair_block = pair_block
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

    def _block_pos(self, i: int) -> int:
        if not 1 <= i <= len(self._blocks):
            raise IndexError(f"block index {i} outside 1..{len(self._blocks)}")
        return i - 1

    def block(self, i: int) -> tuple[int, ...]:
        """Points of block i (1-based index)."""
        return self._blocks[self._block_pos(i)]

    def block_set(self, i: int) -> frozenset[int]:
        return self._block_sets[self._block_pos(i)]

    def block_through(self, p: int, q: int) -> int:
        """Index of the unique block containing both points."""
        n = self.num_points
        if not (1 <= p <= n and 1 <= q <= n):
            raise IndexError(f"point ids ({p},{q}) outside 1..{n}")
        if p == q:
            raise ValueError("block_through needs two distinct points")
        return self._pair_block[(p - 1) * n + (q - 1)]

    def blocks_disjoint(self, i: int, j: int) -> bool:
        return i != j and not self.block_meets[self._block_pos(i)] >> self._block_pos(j) & 1

    def points(self) -> range:
        return range(1, self.num_points + 1)

    def block_indices(self) -> range:
        return range(1, self.num_blocks + 1)

    def disjoint_block_pairs(self):
        """All unordered disjoint block pairs (i, j) with i < j."""
        for i, meets in enumerate(self.block_meets, start=1):
            yield from ((i, j) for j in range(i + 1, self.num_blocks + 1) if not meets >> (j - 1) & 1)

    def __repr__(self) -> str:
        return f"AbstractUnital(order={self.order}, points={self.num_points}, blocks={self.num_blocks})"


def validate_unital(num_points: int, raw_blocks) -> AbstractUnital:
    """Validate a block list as a 2-(n^3+1, n+1, 1) design and index it.

    Infers the order n from the block size, checks the point count, the
    block count, and that every unordered point pair is covered exactly
    once.  Raises NotAUnital with a specific reason otherwise.
    """
    blocks = [tuple(sorted(b)) for b in raw_blocks]
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

    pair_block = [0] * (num_points * num_points)
    for idx, blk in enumerate(blocks, start=1):
        if len(blk) != size:
            raise NotAUnital(f"block {idx} has size {len(blk)} != {size}")
        if len(set(blk)) != size:
            raise NotAUnital(f"block {idx} repeats a point")
        if blk[0] < 1 or blk[-1] > num_points:
            raise NotAUnital(f"block {idx} has a point id outside 1..{num_points}")
        for p, q in combinations(blk, 2):
            key = (p - 1) * num_points + (q - 1)
            if pair_block[key]:
                raise NotAUnital(f"pair ({p},{q}) covered by blocks {pair_block[key]} and {idx}")
            pair_block[key] = idx
            pair_block[(q - 1) * num_points + (p - 1)] = idx

    covered = sum(1 for v in pair_block if v) // 2
    if covered != num_points * (num_points - 1) // 2:
        raise NotAUnital("some point pair is covered by no block")

    return AbstractUnital(n, num_points, tuple(blocks), tuple(pair_block))
