"""Hermitian polarity of PG(2,q^2) and the classical unital it carries.

The Hermitian form is fixed as the identity form sum(x_i^(q+1)); all
Hermitian polarities are projectively equivalent to it, so nothing is
lost.  The curve (set of self-conjugate points) has q^3+1 points.  Like
any embedded unital (`embedded_unital`), its blocks are its secant lines,
found as the joins of its points; the natural embedding's point/line maps
are retained for the geometric analyses: polar triangles, Baer-subline
tests, nuclei and the affine perspectivity group of a disjoint block pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .design import AbstractUnital, NotAUnital, validate_unital
from .gf import GaloisField
from .groups import PermGroup, closure, relative_to_first
from .plane import ProjectivePlane, cross_ratio, line_parameter, INFINITY

MAX_Q = 5


class NotConjugate(ValueError):
    pass


class NotCollinear(ValueError):
    pass


def base_prime_power(q: int) -> tuple[int, int]:
    """Factor a prime power q as (p, e) with q = p^e."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)  # the least factor above 1 is a prime
    e = 1
    while p and p**e < q:
        e += 1
    if p is None or p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return p, e


@lru_cache(maxsize=None)
def hermitian_plane(q: int) -> ProjectivePlane:
    """PG(2, q^2), the ambient plane of the Hermitian unital of order q."""
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the desk-scale cap {MAX_Q}")
    p, e = base_prime_power(q)
    return ProjectivePlane(GaloisField(p, 2 * e))


def polarity_image(plane: ProjectivePlane, v):
    """The Hermitian polarity x -> x^q applied coordinatewise.

    Maps points to lines and lines to points; applying it twice is the
    identity.  Normalized input stays normalized because 0 and 1 are fixed.
    """
    f = plane.field
    return tuple(f.conjugate(c) for c in v)


def is_self_conjugate(plane: ProjectivePlane, v) -> bool:
    return plane.incident(v, polarity_image(plane, v))


def self_conjugate_points(plane: ProjectivePlane) -> tuple:
    return tuple(p for p in plane.points if is_self_conjugate(plane, p))


def line_secant_type(plane: ProjectivePlane, line, curve) -> int:
    """Intersection size of a line with the Hermitian curve (a point set): 1 or q+1."""
    return sum(1 for p in plane.points_on_line(line) if p in curve)


def are_conjugate_lines(plane: ProjectivePlane, l1, l2) -> bool:
    return plane.incident(polarity_image(plane, l1), l2)


def polar_triangle_completion(plane: ProjectivePlane, l1, l2):
    """Third line of the polar triangle spanned by two conjugate lines."""
    if is_self_conjugate(plane, l1) or is_self_conjugate(plane, l2):
        raise NotConjugate("polar triangle lines must not be self-conjugate")
    if not are_conjugate_lines(plane, l1, l2):
        raise NotConjugate("lines are not conjugate")
    return polarity_image(plane, plane.meet(l1, l2))


@dataclass(frozen=True)
class HermitianEmbedding:
    q: int
    plane: ProjectivePlane
    unital: AbstractUnital
    point_coords: tuple  # point id (1-based) -> plane point
    line_coords: tuple  # block index (1-based) -> plane line
    line_to_block: dict  # plane line -> block index

    def block_line(self, i: int):
        if not 1 <= i <= len(self.line_coords):
            raise IndexError(f"block index {i} outside 1..{len(self.line_coords)}")
        return self.line_coords[i - 1]

    def point(self, pid: int):
        if not 1 <= pid <= len(self.point_coords):
            raise IndexError(f"point id {pid} outside 1..{len(self.point_coords)}")
        return self.point_coords[pid - 1]


def embedded_unital(plane: ProjectivePlane, points) -> tuple[AbstractUnital, tuple]:
    """The unital a plane point set carries, with the line of each block.

    Point i is the i-th given point (1-based).  The blocks are the secant
    lines, the joins of two of the points, listed in `plane.lines` order;
    a tangent line holds one point and is no join.  Raises NotAUnital when
    the secant sections do not form a unital.
    """
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise NotAUnital("a point is given twice")
    on_line: dict = {}
    for (i, p), (j, q) in combinations(enumerate(pts, start=1), 2):
        on_line.setdefault(plane.line_through(p, q), set()).update((i, j))
    block_lines = tuple(l for l in plane.lines if l in on_line)
    return validate_unital(len(pts), [on_line[l] for l in block_lines]), block_lines


@lru_cache(maxsize=None)
def hermitian_unital(q: int) -> HermitianEmbedding:
    """Construct H(q) with its natural embedding in PG(2,q^2)."""
    plane = hermitian_plane(q)
    curve = self_conjugate_points(plane)
    unital, block_lines = embedded_unital(plane, curve)
    return HermitianEmbedding(
        q=q,
        plane=plane,
        unital=unital,
        point_coords=curve,
        line_coords=block_lines,
        line_to_block={l: i for i, l in enumerate(block_lines, start=1)},
    )


def polar_triangles_through_block(emb: HermitianEmbedding, block_index: int) -> tuple:
    """All polar triangles containing the given block, as sorted index triples."""
    plane = emb.plane
    l1 = emb.block_line(block_index)
    pole = polarity_image(plane, l1)
    triangles = set()
    for l2 in plane.lines_through_point(pole):
        if l2 == l1 or is_self_conjugate(plane, l2):
            continue
        l3 = polarity_image(plane, plane.meet(l1, l2))
        triangles.add(tuple(sorted((block_index, emb.line_to_block[l2], emb.line_to_block[l3]))))
    return tuple(sorted(triangles))


def all_polar_triangles(emb: HermitianEmbedding) -> tuple:
    triangles = set()
    for i in emb.unital.block_indices():
        triangles.update(polar_triangles_through_block(emb, i))
    return tuple(sorted(triangles))


def is_baer_subline(plane: ProjectivePlane, points) -> bool:
    """Cross-ratio test: after fixing the first three points, every further
    point must give a cross ratio in the index-2 subfield (or infinity)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    line = plane.line_through(pts[0], pts[1])
    if not all(plane.incident(p, line) for p in pts):
        raise NotCollinear("points do not lie on one line")
    if len(pts) == 3:
        return True
    f = plane.field
    ts = [line_parameter(plane, pts[0], pts[1], p) for p in pts]
    for t in ts[3:]:
        cr = cross_ratio(f, ts[0], ts[1], ts[2], t)
        if cr is not INFINITY and not f.is_in_subfield(cr):
            return False
    return True


def nuclei(plane: ProjectivePlane, point_set) -> tuple:
    """All points off the set through which every line meets it exactly once.

    The set must have n+1 points, n the plane order.
    """
    s = frozenset(point_set)
    if len(s) != plane.order + 1:
        raise ValueError(f"nucleus sets must have {plane.order + 1} points, got {len(s)}")
    line_count = {l: sum(1 for p in plane.points_on_line(l) if p in s) for l in plane.lines}
    return tuple(p for p in plane.points if p not in s and all(line_count[l] == 1 for l in plane.lines_through_point(p)))


def _line_perspectivity(plane, src_pts, center, dst_line):
    """Central projection of one full line onto another, point by point."""
    out = []
    for t in src_pts:
        if t == center:
            raise ValueError("center lies on the source line")
        out.append(plane.meet(plane.line_through(t, center), dst_line))
    return out


@dataclass(frozen=True)
class Gamma1Record:
    """Outcome of the nuclei-generated affinity group of a disjoint block pair."""

    order: int
    is_cyclic: bool
    group: PermGroup
    z: tuple
    v1: tuple | None  # common fixed point besides Z, when the group is nontrivial
    nuclei: tuple
    nuclei_line: tuple | None
    nuclei_collinear: bool
    z_on_nuclei_line: bool


def gamma1_analysis(emb: HermitianEmbedding, b1: int, b2: int) -> Gamma1Record:
    """Group generated by composed line perspectivities centered at the
    nuclei of b1 ∪ (l2 \\ b2), acting on the line of b1."""
    u = emb.unital
    if not u.blocks_disjoint(b1, b2):
        raise ValueError("blocks must be disjoint")
    plane = emb.plane
    l1, l2 = emb.block_line(b1), emb.block_line(b2)
    z = plane.meet(l1, l2)

    b1_pts = frozenset(emb.point(p) for p in u.block(b1))
    b2_pts = frozenset(emb.point(p) for p in u.block(b2))
    script_b = b1_pts | (frozenset(plane.points_on_line(l2)) - b2_pts)
    nuc = nuclei(plane, script_b)

    # phi_N0^-1 phi_N over the nuclei N generate every to-and-back phi_M^-1 phi_N
    l1_pts = plane.points_on_line(l1)
    at = {p: i for i, p in enumerate(plane.points_on_line(l2))}
    maps = [tuple(at[pt] for pt in _line_perspectivity(plane, l1_pts, p, l2)) for p in nuc]
    group = closure(relative_to_first(maps) if maps else [tuple(range(len(l1_pts)))])

    fixed = {pt for i, pt in enumerate(l1_pts) if all(g[i] == i for g in group.generators)} - {z}
    v1 = next(iter(fixed)) if group.order() > 1 and len(fixed) == 1 else None

    nuclei_line = plane.line_through(nuc[0], nuc[1]) if len(nuc) >= 2 else None
    collinear = nuclei_line is None or all(plane.incident(p, nuclei_line) for p in nuc)
    z_on_m = nuclei_line is not None and plane.incident(z, nuclei_line)

    return Gamma1Record(
        order=group.order(),
        is_cyclic=group.is_cyclic(),
        group=group,
        z=z,
        v1=v1,
        nuclei=nuc,
        nuclei_line=nuclei_line,
        nuclei_collinear=collinear,
        z_on_nuclei_line=z_on_m,
    )
