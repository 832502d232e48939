"""The projective plane PG(2, F) over a finite field.

Points and lines are homogeneous coordinate triples of field elements
(plain integers, see gf.py), normalized so that the last nonzero
coordinate is 1.  That normalization gives a unique, hashable
representative per projective point, so dictionaries of points work
directly.  Lines use the same representation for their dual coordinates;
incidence is the vanishing of the bilinear form sum(P_i * l_i).
"""

from __future__ import annotations

from functools import cached_property, reduce

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

    def index(self, v) -> int:
        """Position of a normalized triple in `points`, and so in `lines`."""
        x, y, z = v
        n = self.order
        i = x * n + y if z else n * n + (x if y else n)
        if not 0 <= i < len(self.points) or self.points[i] != tuple(v):
            raise ValueError(f"{v!r} is not a point of the plane in normalized coordinates")
        return i

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Entry i is the bitset of the lines through `points[i]` (bit j for
        `lines[j]`).  Incidence is symmetric in the triples, so entry i is
        also the bitset of the points on `lines[i]`.  Built on first use,
        from the points b and a + t*b of each line."""
        f, rows = self.field, []
        for l in self.lines:
            k = 2 if l[2] else 1 if l[1] else 0  # l[k] == 1
            i, j = (c for c in range(3) if c != k)  # a, b: the points of l with (1, 0) and (0, 1) at (i, j)
            a, b = [0, 0, 0], [0, 0, 0]
            a[i], a[k] = 1, f.sub(0, l[i])
            b[j], b[k] = 1, f.sub(0, l[j])
            on_l = [b] + [[f.add(x, f.mul(t, y)) for x, y in zip(a, b)] for t in f.elements()]
            rows.append(sum(1 << self.index(self.normalize(v)) for v in on_l))
        return tuple(rows)

    def normalize(self, v):
        f = self.field
        for i in (2, 1, 0):
            if v[i]:
                s = f.inv(v[i])
                return tuple(f.mul(c, s) for c in v)
        raise ValueError("zero vector has no projective representative")

    def incident(self, point, line) -> bool:
        return reduce(self.field.add, map(self.field.mul, point, line)) == 0

    def _cross(self, a, b):
        f = self.field
        return self.normalize(
            (
                f.sub(f.mul(a[1], b[2]), f.mul(a[2], b[1])),
                f.sub(f.mul(a[2], b[0]), f.mul(a[0], b[2])),
                f.sub(f.mul(a[0], b[1]), f.mul(a[1], b[0])),
            )
        )

    def line_through(self, p, q):
        if p == q:
            raise ValueError("need two distinct points")
        return self._cross(p, q)

    def meet(self, l, m):
        if l == m:
            raise ValueError("need two distinct lines")
        return self._cross(l, m)

    def points_on_line(self, line) -> tuple:
        return tuple(self.points[i - 1] for i in block_ids(self.incidence[self.index(line)]))

    # incidence is symmetric and lines are the same triples as points, so
    # the lines through a point are the points on the line of that triple
    lines_through_point = points_on_line

    def __repr__(self) -> str:
        return f"ProjectivePlane(order={self.order})"

