"""The projective plane PG(2, F) over a finite field.

Points and lines are homogeneous coordinate triples of field elements
(plain integers, see gf.py), normalized so that the last nonzero
coordinate is 1.  That normalization gives a unique, hashable
representative per projective point, so dictionaries of points work
directly.  Lines use the same representation for their dual coordinates.
The plane's one incidence primitive is `row(i)`, a bitset computed from
the equation of `lines[i]`: a line's points are the bits of its row, read
at its `index` position, so a triple not of the plane raises ValueError.
Planes beyond PG(2, q^2), q <= `hermitian.MAX_Q`, are out of scope.
"""

from __future__ import annotations

from .design import block_ids
from .gf import GaloisField


class ProjectivePlane:
    def __init__(self, field: GaloisField):
        self.field = field
        self.order = field.size
        els = field.elements()
        pts = [(x, y, 1) for x in els for y in els] + [(x, 1, 0) for x in els] + [(1, 0, 0)]
        self.points: tuple[tuple[int, int, int], ...] = tuple(pts)
        self.lines = self.points  # duality: same normalized triples
        # q x q tables, since `GaloisField.add` loops over digits when p is odd
        self._mul = [[field.mul(a, b) for b in els] for a in els]
        self._add = [[field.add(a, b) for b in els] for a in els]

    def index(self, v) -> int:
        """Position of a normalized triple in `points`, and so in `lines`;
        ValueError for any other triple."""
        n = self.order
        if len(v) == 3 and all(type(c) is int for c in v):
            x, y, z = v
            i = x * n + y if z else n * n + (x if y else n)
            if 0 <= i < len(self.points) and self.points[i] == tuple(v):
                return i
        raise ValueError(f"{v!r} is not a point of the plane in normalized coordinates")

    def row(self, i: int) -> int:
        """The bitset of the points on `lines[i]` (bit j for `points[j]`).
        Incidence is symmetric in the triples, so it is also the bitset of
        the lines through `points[i]`.  From the line's equation
        l0*x + l1*y + l2*z = 0: the affine points (x, a*x + b, 1) when
        l1 != 0, (c, y, 1) when only l0 != 0, or every (x, 1, 0) on the line
        at infinity, and one more point at infinity, each placed at its
        `index` position, so no point is normalized.  IndexError outside
        0..len(lines)-1."""
        if not 0 <= i < len(self.lines):
            raise IndexError(f"line {i} is not in 0..{len(self.lines) - 1}")
        f, n = self.field, self.order
        l0, l1, l2 = self.lines[i]
        if l1:  # y = a*x + b
            times_a, plus_b = self._mul[f.div(f.sub(0, l0), l1)], self._add[f.div(f.sub(0, l2), l1)]
            row = sum(1 << x * n + plus_b[times_a[x]] for x in range(n))
        elif l0:  # x = c
            row = ((1 << n) - 1) << f.div(f.sub(0, l2), l0) * n
        else:  # the line at infinity: every (x, 1, 0)
            row = ((1 << n) - 1) << n * n
        return row | 1 << n * n + (f.div(f.sub(0, l1), l0) if l0 else n)  # (-l1/l0, 1, 0), or (1, 0, 0)

    def points_on_line(self, line) -> tuple:
        return tuple(self.points[i - 1] for i in block_ids(self.row(self.index(line))))

    # incidence is symmetric and lines are the same triples as points, so
    # the lines through a point are the points on the line of that triple
    lines_through_point = points_on_line

    def __repr__(self) -> str:
        return f"ProjectivePlane(order={self.order})"
