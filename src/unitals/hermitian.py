"""The classical unital H(q) in PG(2,q^2).

The Hermitian form is fixed as the identity form sum(x_i^(q+1)); all
Hermitian polarities are projectively equivalent to it, so nothing is
lost.  The curve (set of self-conjugate points) has q^3+1 points.  Like
any embedded unital (`embedded_unital`), its blocks are its secant lines,
read off the rows of its own points, and its `Embedding` maps each point
to its plane point and each block to its line.  The geometry of H(q) in
the plane (polar triangles, Baer sublines, nuclei, the group Γ₁ of a
disjoint block pair) is stated in the tests, by its definitions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .design import AbstractUnital, NotAUnital, block_ids, validate_unital
from .gf import GaloisField
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


def self_conjugate_points(plane: ProjectivePlane) -> tuple:
    """The curve sum(x_i^(q+1)) = 0, in `plane.points` order, from one table
    of the norms a^(q+1) = a * a^q."""
    f = plane.field
    norm, add = [f.mul(a, f.conjugate(a)) for a in f.elements()], f.add
    return tuple(p for p in plane.points if add(add(norm[p[0]], norm[p[1]]), norm[p[2]]) == 0)


class Embedding(NamedTuple):
    """A unital in a plane: the plane point of each point, the line of each block."""

    plane: ProjectivePlane
    unital: AbstractUnital
    point_coords: tuple  # point id (1-based) -> plane point
    line_coords: tuple  # block index (1-based) -> plane line


def embedded_unital(plane: ProjectivePlane, points) -> Embedding:
    """The unital a plane point set carries, as its `Embedding`.

    Point i is the i-th given point (1-based).  Each point's `plane.row`
    holds the lines through it, so only the points' own rows are computed;
    the blocks are the lines that hold two or more of the points, in
    `plane.lines` order.  Raises NotAUnital when the points are not distinct
    members of `plane.points` or their secant sections do not form a unital.
    """
    pts = tuple(points)
    try:
        where = [plane.index(p) for p in pts]  # point id - 1 -> plane position
    except ValueError as e:
        raise NotAUnital(f"the points must be points of the plane, in its normalised coordinates: {e}") from None
    if len(set(where)) != len(pts):
        raise NotAUnital("a point is given twice")
    on_line: dict[int, list[int]] = {}
    for pid, i in enumerate(where, start=1):
        for l in block_ids(plane.row(i)):
            on_line.setdefault(l - 1, []).append(pid)
    secants = sorted(l for l, on in on_line.items() if len(on) > 1)
    unital = validate_unital(len(pts), [on_line[l] for l in secants])
    point_coords = tuple(plane.points[i] for i in where)  # the plane's own triples, also for a point given as a list
    return Embedding(plane, unital, point_coords, tuple(plane.lines[l] for l in secants))


@lru_cache(maxsize=None)
def hermitian_unital(q: int) -> Embedding:
    """Construct H(q) with its natural embedding in PG(2,q^2)."""
    plane = hermitian_plane(q)
    return embedded_unital(plane, self_conjugate_points(plane))
