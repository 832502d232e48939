"""Hermitian polarity of PG(2,q^2) and the classical unital it carries.

The Hermitian form is fixed as the identity form sum(x_i^(q+1)); all
Hermitian polarities are projectively equivalent to it, so nothing is
lost.  The curve (set of self-conjugate points) has q^3+1 points.  Like
any embedded unital (`embedded_unital`), its blocks are its secant lines,
read off the plane's incidence table, and its `Embedding` keeps the point
and line maps for the geometric analyses: polar triangles, Baer-subline
tests, nuclei and the affine perspectivity group of a disjoint block pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .design import AbstractUnital, NotAUnital, block_ids, fold, validate_unital
from .gf import GaloisField
from .groups import PermGroup, closure, relative_to_first
from .plane import ProjectivePlane

MAX_Q = 5


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
    identity.  Normalized input stays normalized because 0 and 1 are fixed;
    any other triple raises ValueError from `plane.index`.
    """
    return tuple(map(plane.field.conjugate, plane.points[plane.index(v)]))


def is_self_conjugate(plane: ProjectivePlane, v) -> bool:
    return plane.incident(v, polarity_image(plane, v))


def self_conjugate_points(plane: ProjectivePlane) -> tuple:
    """The curve sum(x_i^(q+1)) = 0, in `plane.points` order, from one table
    of the norms a^(q+1) = a * a^q."""
    f = plane.field
    norm, add = [f.mul(a, f.conjugate(a)) for a in f.elements()], f.add
    return tuple(p for p in plane.points if add(add(norm[p[0]], norm[p[1]]), norm[p[2]]) == 0)


def are_conjugate_lines(plane: ProjectivePlane, l1, l2) -> bool:
    return plane.incident(polarity_image(plane, l1), l2)


def polar_triangle_completion(plane: ProjectivePlane, l1, l2):
    """Third line of the polar triangle spanned by two conjugate lines."""
    if is_self_conjugate(plane, l1) or is_self_conjugate(plane, l2):
        raise ValueError("polar triangle lines must not be self-conjugate")
    if not are_conjugate_lines(plane, l1, l2):
        raise ValueError("lines are not conjugate")
    return polarity_image(plane, plane.meet(l1, l2))


class Embedding(NamedTuple):
    """A unital in a plane: the plane point of each point, the line of each block."""

    plane: ProjectivePlane
    unital: AbstractUnital
    point_coords: tuple  # point id (1-based) -> plane point
    line_coords: tuple  # block index (1-based) -> plane line
    line_to_block: dict  # plane line -> block index

    def block_line(self, i: int):
        return self.line_coords[self.unital.block_pos(i)]

    def point(self, pid: int):
        return self.point_coords[self.unital.point_pos(pid)]


def embedded_unital(plane: ProjectivePlane, points) -> Embedding:
    """The unital a plane point set carries, as its `Embedding`.

    Point i is the i-th given point (1-based).  The blocks are the secant
    lines, read off `plane.incidence` in `plane.lines` order: each line
    whose row holds two or more of the points.  Raises NotAUnital when the
    points are not distinct members of `plane.points` or their secant
    sections do not form a unital.
    """
    pts = tuple(points)
    try:
        ids = {plane.index(p): pid for pid, p in enumerate(pts, start=1)}  # plane position -> point id
    except ValueError as e:
        raise NotAUnital(f"the points must be points of the plane, in its normalised coordinates: {e}") from None
    if len(ids) != len(pts):
        raise NotAUnital("a point is given twice")
    mask = sum(1 << i for i in ids)
    secants = [(l, on) for l, row in zip(plane.lines, plane.incidence) if (on := row & mask).bit_count() > 1]
    unital = validate_unital(len(pts), [[ids[i - 1] for i in block_ids(on)] for _, on in secants])
    block_lines = tuple(l for l, _ in secants)
    point_coords = tuple(plane.points[i] for i in ids)  # the plane's own triples, also for a point given as a list
    return Embedding(plane, unital, point_coords, block_lines, {l: i for i, l in enumerate(block_lines, start=1)})


@lru_cache(maxsize=None)
def hermitian_unital(q: int) -> Embedding:
    """Construct H(q) with its natural embedding in PG(2,q^2)."""
    plane = hermitian_plane(q)
    return embedded_unital(plane, self_conjugate_points(plane))


def polar_triangles_through_block(emb: Embedding, block_index: int) -> tuple:
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


def all_polar_triangles(emb: Embedding) -> tuple:
    triangles = set()
    for i in emb.unital.block_indices():
        triangles.update(polar_triangles_through_block(emb, i))
    return tuple(sorted(triangles))


def is_baer_subline(plane: ProjectivePlane, points) -> bool:
    """Cross-ratio test: (P0, P1; P2, P) = d(P0, P2)*d(P1, P) / (d(P1, P2)*d(P0, P))
    lies in GF(q) for each further point P, d(P, Q) the 2x2 minor P_a*Q_b - P_b*Q_a
    on the first coordinate pair (a, b) where d(P0, P1) != 0; no factor is 0.
    Each point is read as its plane triple through `plane.index`."""
    pts = [plane.points[plane.index(p)] for p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    line = plane.line_through(pts[0], pts[1])
    if not all(plane.incident(p, line) for p in pts):
        raise ValueError("points do not lie on one line")
    f = plane.field
    p0, p1, p2 = pts[:3]
    a, b = next((a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if f.mul(p0[a], p1[b]) != f.mul(p0[b], p1[a]))

    def d(u, v):
        return f.sub(f.mul(u[a], v[b]), f.mul(u[b], v[a]))

    c0, c1 = d(p0, p2), d(p1, p2)
    return all(f.is_in_subfield(f.div(f.mul(c0, d(p1, p)), f.mul(c1, d(p0, p)))) for p in pts[3:])


def nuclei(plane: ProjectivePlane, point_set) -> tuple:
    """All points off the set through which every line meets it exactly once.

    The set must have n+1 points, n the plane order.  Its tangents are the
    lines in the `design.fold` of its points' rows once but not twice.
    Each point is read as its plane triple through `plane.index`.
    """
    s = frozenset(plane.points[plane.index(p)] for p in point_set)
    if len(s) != plane.order + 1:
        raise ValueError(f"nucleus sets must have {plane.order + 1} points, got {len(s)}")
    inc = plane.incidence
    once, twice = fold(inc[plane.index(p)] for p in s)
    tangents = once & ~twice
    return tuple(p for p, on_p in zip(plane.points, inc) if not on_p & ~tangents and p not in s)


class Gamma1Record(NamedTuple):
    """Outcome of the nuclei-generated affinity group of a disjoint block pair."""

    group: PermGroup
    z: tuple
    v1: tuple | None  # common fixed point besides Z, when the group is nontrivial
    nuclei: tuple
    nuclei_line: tuple | None
    nuclei_collinear: bool
    z_on_nuclei_line: bool


def gamma1_analysis(emb: Embedding, b1: int, b2: int) -> Gamma1Record:
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

    # phi_N0^-1 phi_N over the nuclei N generate every to-and-back phi_M^-1 phi_N; phi_N maps t
    # to the point of l2 on the line tN (no nucleus is on l1 or l2: each meets script_b twice)
    inc, index = plane.incidence, plane.index
    l1_pts, on_l2 = plane.points_on_line(l1), inc[index(l2)]
    at = {i: pos for pos, i in enumerate(block_ids(on_l2))}  # 1-based point index -> position on l2
    through = [inc[index(t)] for t in l1_pts]
    maps = [
        tuple(at[(inc[(on_t & on_n).bit_length() - 1] & on_l2).bit_length()] for on_t in through)
        for on_n in (inc[index(p)] for p in nuc)
    ]
    group = closure(relative_to_first(maps) if maps else [tuple(range(len(l1_pts)))])

    fixed = {pt for i, pt in enumerate(l1_pts) if all(g[i] == i for g in group.generators)} - {z}
    v1 = next(iter(fixed)) if group.order() > 1 and len(fixed) == 1 else None

    nuclei_line = plane.line_through(nuc[0], nuc[1]) if len(nuc) >= 2 else None
    collinear = nuclei_line is None or all(plane.incident(p, nuclei_line) for p in nuc)
    z_on_m = nuclei_line is not None and plane.incident(z, nuclei_line)

    return Gamma1Record(
        group=group,
        z=z,
        v1=v1,
        nuclei=nuc,
        nuclei_line=nuclei_line,
        nuclei_collinear=collinear,
        z_on_nuclei_line=z_on_m,
    )
