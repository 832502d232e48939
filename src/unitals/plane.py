"""The projective plane PG(2, F) over a finite field.

Points and lines are homogeneous coordinate triples of field elements
(plain integers, see gf.py), normalized so that the last nonzero
coordinate is 1.  That normalization gives a unique, hashable
representative per projective point, so dictionaries of points work
directly.  Lines use the same representation for their dual coordinates;
incidence is the vanishing of the bilinear form sum(P_i * l_i).
"""

from __future__ import annotations

from .gf import GaloisField

#: marker for the infinite parameter of a projective line, used by
#: line_parameter and cross_ratio
INFINITY = None


class ProjectivePlane:
    def __init__(self, field: GaloisField):
        self.field = field
        self.order = field.size
        els = field.elements()
        pts = [(x, y, 1) for x in els for y in els] + [(x, 1, 0) for x in els] + [(1, 0, 0)]
        self.points: tuple[tuple[int, int, int], ...] = tuple(pts)
        self.lines = self.points  # duality: same normalized triples
        self._points_on_line: dict = {}

    @property
    def num_points(self) -> int:
        return len(self.points)

    def normalize(self, v):
        f = self.field
        for i in (2, 1, 0):
            if v[i]:
                s = f.inv(v[i])
                return tuple(f.mul(c, s) for c in v)
        raise ValueError("zero vector has no projective representative")

    def incident(self, point, line) -> bool:
        f = self.field
        s = 0
        for p, l in zip(point, line):
            s = f.add(s, f.mul(p, l))
        return s == 0

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
        cached = self._points_on_line.get(line)
        if cached is None:
            cached = tuple(p for p in self.points if self.incident(p, line))
            self._points_on_line[line] = cached
        return cached

    # incidence is symmetric and lines are the same triples as points, so
    # the lines through a point are the points on the line of that triple
    lines_through_point = points_on_line

    def __repr__(self) -> str:
        return f"ProjectivePlane(order={self.order})"


def line_parameter(plane: ProjectivePlane, a, b, p):
    """Parameter of p on the line spanned by a and b: p ~ alpha*a + beta*b,
    returned as t = beta/alpha (INFINITY when alpha = 0, i.e. p = b)."""
    f = plane.field
    for i in range(3):
        for j in range(i + 1, 3):
            det = f.sub(f.mul(a[i], b[j]), f.mul(a[j], b[i]))
            if det:
                alpha = f.sub(f.mul(p[i], b[j]), f.mul(p[j], b[i]))
                beta = f.sub(f.mul(a[i], p[j]), f.mul(a[j], p[i]))
                if alpha == 0:
                    return INFINITY
                return f.div(beta, alpha)
    raise ValueError("base points are not independent")


def cross_ratio(f: GaloisField, t1, t2, t3, t4):
    """Cross ratio (t1,t2; t3,t4) on the projective line GF ∪ {INFINITY}.

    Returns a field element, or INFINITY when the denominator vanishes.
    """
    if t1 is INFINITY:
        num, den = f.sub(t2, t4), f.sub(t2, t3)
    elif t2 is INFINITY:
        num, den = f.sub(t1, t3), f.sub(t1, t4)
    elif t3 is INFINITY:
        num, den = f.sub(t2, t4), f.sub(t1, t4)
    elif t4 is INFINITY:
        num, den = f.sub(t1, t3), f.sub(t2, t3)
    else:
        num = f.mul(f.sub(t1, t3), f.sub(t2, t4))
        den = f.mul(f.sub(t1, t4), f.sub(t2, t3))
    if den == 0:
        return INFINITY
    return f.div(num, den)
