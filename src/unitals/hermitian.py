"""Hermitian polarity of PG(2,q^2) and the classical unital it carries.

The Hermitian form is fixed as the identity form sum(x_i^(q+1)); all
Hermitian polarities are projectively equivalent to it, so nothing is
lost.  The curve (set of self-conjugate points) has q^3+1 points and the
(q+1)-secant sections form the blocks of the Hermitian unital, giving a
natural embedding whose point/line maps are retained for the geometric
analyses: polar triangles, Baer-subline tests, nuclei and the affine
perspectivity group of a disjoint block pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .design import AbstractUnital, validate_unital
from .gf import GaloisField, is_prime
from .groups import PermGroup, closure
from .plane import ProjectivePlane, cross_ratio, line_parameter, INFINITY

MAX_Q = 5


class NotConjugate(ValueError):
    pass


class NotCollinear(ValueError):
    pass


def base_prime_power(q: int) -> tuple[int, int]:
    """Factor a prime power q as (p, e) with q = p^e."""
    for p in range(2, q + 1):
        if q % p == 0:
            if not is_prime(p):
                break
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m == 1:
                return p, e
            break
    raise ValueError(f"{q} is not a prime power")


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


def line_secant_type(plane: ProjectivePlane, line, curve=None) -> int:
    """Intersection size of a line with the Hermitian curve: 1 or q+1."""
    if curve is None:
        curve = frozenset(self_conjugate_points(plane))
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
    coord_to_point: dict  # plane point -> point id
    line_to_block: dict  # plane line -> block index

    def block_line(self, i: int):
        return self.line_coords[i - 1]

    def point(self, pid: int):
        return self.point_coords[pid - 1]


@lru_cache(maxsize=None)
def hermitian_unital(q: int) -> HermitianEmbedding:
    """Construct H(q) with its natural embedding in PG(2,q^2)."""
    plane = hermitian_plane(q)
    curve = self_conjugate_points(plane)
    assert len(curve) == q**3 + 1
    coord_to_point = {p: i for i, p in enumerate(curve, start=1)}

    blocks = []
    block_lines = []
    for line in plane.lines:
        if is_self_conjugate(plane, line):
            continue
        blk = sorted(coord_to_point[p] for p in plane.points_on_line(line) if p in coord_to_point)
        blocks.append(blk)
        block_lines.append(line)

    unital = validate_unital(len(curve), blocks)
    line_to_block = {l: i for i, l in enumerate(block_lines, start=1)}
    return HermitianEmbedding(
        q=q,
        plane=plane,
        unital=unital,
        point_coords=tuple(curve),
        line_coords=tuple(block_lines),
        coord_to_point=coord_to_point,
        line_to_block=line_to_block,
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
    out = []
    for p in plane.points:
        if p in s:
            continue
        if all(line_count[l] == 1 for l in plane.lines_through_point(p)):
            out.append(p)
    return tuple(out)


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

    l1_pts = plane.points_on_line(l1)
    index = {p: i for i, p in enumerate(l1_pts)}
    gens = []
    for p in nuc:
        fwd = _line_perspectivity(plane, l1_pts, p, l2)
        for q in nuc:
            back = _line_perspectivity(plane, fwd, q, l1)
            gens.append(tuple(index[pt] for pt in back))
    group = closure(gens or [tuple(range(len(l1_pts)))])

    v1 = None
    if group.order() > 1:
        fixed = set(range(len(l1_pts)))
        for g in group.generators:
            fixed &= {i for i in fixed if g[i] == i}
        fixed_pts = {l1_pts[i] for i in fixed} - {z}
        if len(fixed_pts) == 1:
            v1 = next(iter(fixed_pts))

    nuclei_line = None
    collinear = True
    z_on_m = False
    if len(nuc) >= 2:
        nuclei_line = plane.line_through(nuc[0], nuc[1])
        collinear = all(plane.incident(p, nuclei_line) for p in nuc)
        z_on_m = plane.incident(z, nuclei_line)

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
