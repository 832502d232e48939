"""The geometry of H(q) in PG(2, q^2), by its definitions.

The paper's statements about the Hermitian unital (conjugate pairs, polar
triangles, Baer sublines, nuclei and the group Γ₁ of a disjoint block
pair) are checked against these.  Each is written the way it is defined,
not for speed: incidence is the bilinear form, the line of two points and
the meet of two lines are the cross product, the block of a line is read
off the embedding's `line_coords`, and only nuclei and Γ₁ list the points
of a line, the bits of its `row`, through `points_on_line`.
"""

from functools import reduce

from unitals.groups import closure


def normalize(plane, v):
    """The representative of v whose last nonzero coordinate is 1."""
    f = plane.field
    for i in (2, 1, 0):
        if v[i]:
            s = f.inv(v[i])
            return tuple(f.mul(c, s) for c in v)
    raise ValueError("zero vector has no projective representative")


def on(plane, point, line) -> bool:
    """Whether the bilinear form sum(P_i * l_i) vanishes."""
    f = plane.field
    return reduce(f.add, map(f.mul, point, line)) == 0


def cross(plane, a, b):
    """The normalized cross product: the line of two distinct points, or
    the meet of two distinct lines.  Entry i is a[i+1]*b[i+2] - a[i+2]*b[i+1],
    indices mod 3."""
    f = plane.field
    return normalize(plane, [f.sub(f.mul(a[i - 2], b[i - 1]), f.mul(a[i - 1], b[i - 2])) for i in range(3)])


def polarity(plane, v):
    """The Hermitian polarity x -> x^q coordinatewise: the pole of a line,
    the polar of a point.  Normalized triples stay normalized."""
    return tuple(map(plane.field.conjugate, v))


def conjugate(plane, a, b) -> bool:
    """Whether the polarity image of a is incident with b; a line or point
    is self-conjugate when it is conjugate to itself."""
    return on(plane, polarity(plane, a), b)


def third_side(plane, l1, l2):
    """The third line of the polar triangle on two conjugate lines: the
    polar of their meet."""
    return polarity(plane, cross(plane, l1, l2))


def polar_triangles_through_block(emb, b) -> tuple:
    """The polar triangles on block b's line, as sorted block triples: its
    second side is any line through the line's pole (a line conjugate to
    it) that is not self-conjugate."""
    plane, l1 = emb.plane, emb.line_coords[b - 1]
    block_of = {l: i for i, l in enumerate(emb.line_coords, start=1)}
    triangles = {
        tuple(sorted((b, block_of[l2], block_of[third_side(plane, l1, l2)])))
        for l2 in plane.lines
        if conjugate(plane, l1, l2) and not conjugate(plane, l2, l2)
    }
    return tuple(sorted(triangles))


def all_polar_triangles(emb) -> set:
    return {t for b in range(1, emb.unital.num_blocks + 1) for t in polar_triangles_through_block(emb, b)}


def baer_subline(plane, p0, p1, p2) -> set:
    """The Baer subline through three points of a line: the q+1 points
    a*P0' + b*P1' over (a : b) in PG(1, q), with P0 and P1 scaled by
    search so that P2 = P0' + P1'."""
    f = plane.field
    q = f.subfield_order
    subfield = [x for x in f.elements() if f.pow(x, q) == x]
    scale = next(s for s in f.elements() if normalize(plane, [f.add(f.mul(s, x), y) for x, y in zip(p0, p1)]) == p2)
    p0 = [f.mul(scale, x) for x in p0]
    return {tuple(p1)} | {normalize(plane, [f.add(x, f.mul(t, y)) for x, y in zip(p0, p1)]) for t in subfield}


def nuclei(plane, point_set) -> tuple:
    """The points off the set through which every line meets it exactly
    once, in `plane.points` order, by counting each line's points in it."""
    s = set(point_set)
    count = {l: sum(p in s for p in plane.points_on_line(l)) for l in plane.lines}
    return tuple(p for p in plane.points if p not in s and all(count[l] == 1 for l in plane.lines_through_point(p)))


def pair_nuclei(emb, b1, b2) -> tuple:
    """The nuclei of b1 ∪ (l2 \\ b2), l2 the line of block b2."""
    u, plane = emb.unital, emb.plane
    b2_pts = {emb.point_coords[p - 1] for p in u.block(b2)}
    on_l2 = set(plane.points_on_line(emb.line_coords[b2 - 1]))
    return nuclei(plane, {emb.point_coords[p - 1] for p in u.block(b1)} | (on_l2 - b2_pts))


def gamma1(emb, b1, b2, nuc):
    """Γ₁ of a disjoint block pair, acting on the points of l1 in
    `points_on_line` order: the closure of every to-and-back projection
    l1 -> l2 -> l1, from one nucleus forward and from another (or the
    same) one back."""
    plane = emb.plane
    l1, l2 = emb.line_coords[b1 - 1], emb.line_coords[b2 - 1]
    l1_pts, l2_pts = plane.points_on_line(l1), plane.points_on_line(l2)

    def project(center, points, line):
        return {t: cross(plane, cross(plane, t, center), line) for t in points}

    fwd = {n: project(n, l1_pts, l2) for n in nuc}
    back = {n: project(n, l2_pts, l1) for n in nuc}
    index = {t: i for i, t in enumerate(l1_pts)}
    gens = [tuple(index[back[m][fwd[n][t]]] for t in l1_pts) for n in nuc for m in nuc]
    return closure(gens or [tuple(range(len(l1_pts)))])
