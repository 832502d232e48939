import hashlib
import random
from itertools import combinations

import pytest

from unitals.design import NotAUnital, validate_unital
from unitals.formats import serialize_json
from unitals.gf import GaloisField
from unitals import hermitian
from unitals.hermitian import base_prime_power, embedded_unital, hermitian_plane, hermitian_unital, self_conjugate_points
from unitals.persp import full_points
from unitals.plane import ProjectivePlane
from hermitian_geometry import (
    all_polar_triangles,
    baer_subline,
    conjugate,
    cross,
    gamma1,
    normalize,
    nuclei,
    on,
    pair_nuclei,
    polar_triangles_through_block,
    polarity,
    third_side,
)


def test_base_prime_power():
    assert base_prime_power(4) == (2, 2)
    assert base_prime_power(5) == (5, 1)
    with pytest.raises(ValueError):
        base_prime_power(6)


def test_plane_point_counts():
    assert len(hermitian_plane(2).points) == 21  # PG(2,4)
    assert len(hermitian_plane(3).points) == 91  # PG(2,9)


def test_each_line_has_order_plus_one_points():
    plane = hermitian_plane(2)
    for line in plane.lines:
        assert len(plane.points_on_line(line)) == plane.order + 1


def test_polarity_involution_and_fixed_coords():
    plane = hermitian_plane(3)
    for v in plane.points[:40]:
        assert polarity(plane, polarity(plane, v)) == v
    assert polarity(plane, (0, 0, 1)) == (0, 0, 1)
    assert polarity(plane, (1, 0, 0)) == (1, 0, 0)


def test_polarity_reverses_incidence():
    for q in (2, 3):
        plane = hermitian_plane(q)
        for p in plane.points[::5]:
            for l in plane.lines[::7]:
                assert on(plane, p, l) == on(plane, polarity(plane, l), polarity(plane, p))


@pytest.mark.parametrize("q,expected", [(2, 9), (3, 28), (4, 65), (5, 126)])
def test_self_conjugate_point_counts(q, expected):
    assert len(self_conjugate_points(hermitian_plane(q))) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_unital_is_design(q):
    u = hermitian_unital(q).unital
    assert u.order == q
    assert u.num_points == q**3 + 1
    assert u.num_blocks == q * q * (q * q - q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hermitian_unital_is_the_embedded_unital_of_the_curve(q):
    emb = hermitian_unital(q)
    plane = hermitian_plane(q)
    built = embedded_unital(plane, self_conjugate_points(plane))
    assert emb.plane is built.plane is plane
    assert emb.unital.all_blocks == built.unital.all_blocks
    assert (emb.point_coords, emb.line_coords) == (built.point_coords, built.line_coords)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hermitian_unital_computes_only_the_rows_of_its_points(q, monkeypatch):
    """On a fresh plane, H(q) computes the q^3+1 rows of its own points,
    each once."""
    expected, plane = hermitian_unital(q), ProjectivePlane(hermitian_plane(q).field)
    rows, row = [], ProjectivePlane.row
    monkeypatch.setattr(ProjectivePlane, "row", lambda self, i: rows.append(i) or row(self, i))
    monkeypatch.setattr(hermitian, "hermitian_plane", lambda q: plane)
    emb = hermitian_unital.__wrapped__(q)
    assert sorted(rows) == sorted(map(plane.index, emb.point_coords)) and len(rows) == q**3 + 1
    assert (emb.unital.all_blocks, emb.line_coords) == (expected.unital.all_blocks, expected.line_coords)


def _reference_hermitian(q):
    """H(q) as first built, from incidence alone: the curve points on each
    line that is not self-conjugate, lines in plane order."""
    plane = hermitian_plane(q)
    curve = [p for p in plane.points if on(plane, p, polarity(plane, p))]
    ids = {p: i for i, p in enumerate(curve, start=1)}
    blocks, lines = [], []
    for l in plane.lines:
        if not on(plane, polarity(plane, l), l):
            blocks.append(tuple(ids[p] for p in curve if on(plane, p, l)))
            lines.append(l)
    return tuple(blocks), tuple(lines)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_hermitian_unital_matches_incidence_reference(q):
    emb = hermitian_unital(q)
    assert (emb.unital.all_blocks, emb.line_coords) == _reference_hermitian(q)


def _pairwise_embedded_unital(plane, points):
    """`embedded_unital` as first written: one cross product per point
    pair, the points collected by the line they span."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise NotAUnital("a point is given twice")
    on_line: dict = {}
    for (i, p), (j, q) in combinations(enumerate(pts, start=1), 2):
        on_line.setdefault(cross(plane, p, q), set()).update((i, j))
    block_lines = tuple(l for l in plane.lines if l in on_line)
    return validate_unital(len(pts), [on_line[l] for l in block_lines]), block_lines


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_embedded_unital_matches_pairwise_reference(q):
    """Curve order puts the q+1 points at infinity last; the shuffles also
    key affine points from a point at infinity."""
    plane = hermitian_plane(q)
    curve = list(self_conjugate_points(plane))
    assert sum(1 for p in curve if p[2] == 0) == q + 1
    rng = random.Random(q)
    for shuffles in range(4):
        if shuffles:
            rng.shuffle(curve)
        emb = embedded_unital(plane, curve)
        reference, reference_lines = _pairwise_embedded_unital(plane, curve)
        assert (emb.unital.all_blocks, emb.line_coords) == (reference.all_blocks, reference_lines)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_embedded_unital_and_reference_reject_a_curve_one_point_off(q):
    plane = hermitian_plane(q)
    curve = self_conjugate_points(plane)
    off = next(p for p in plane.points if p not in curve)
    for points in (curve[1:], curve + (off,)):
        for build in (embedded_unital, _pairwise_embedded_unital):
            with pytest.raises(NotAUnital):
                build(plane, points)


def test_embedded_unital_rejects_points_not_of_the_plane():
    """A point must be given as its normalised triple: a scaled copy of a
    curve point, the zero vector, a coordinate outside the field and one
    that is not an int are not plane points, even where they stand for (or
    equal) the point they replace."""
    plane = hermitian_plane(2)  # PG(2, 4)
    curve = self_conjugate_points(plane)
    f = plane.field
    affine = next(p for p in curve if p[2])
    at_infinity = next(p for p in curve if not p[2])
    scaled = [tuple(f.mul(c, 2) for c in p) for p in (affine, at_infinity)]
    cases = [(affine, scaled[0]), (at_infinity, scaled[1]), (affine, (0, 0, 0)), (affine, affine[:2] + (5,))]
    cases += [(affine, (float(affine[0]),) + affine[1:]), (affine, ("a",) + affine[1:])]
    for p, bad in cases:
        with pytest.raises(NotAUnital):
            embedded_unital(plane, [bad if x == p else x for x in curve])
    with pytest.raises(NotAUnital):
        embedded_unital(plane, curve + (scaled[0],))


@pytest.mark.parametrize(
    "q,p,k,unital_sha,lines_sha",
    [
        (7, 7, 2, "40d82ab16fb873c4d00c0262a578939707a31cd195d193827a861038abe6fca4",
         "8e1918a0c7afee5f7de3a54247246cb4a6a6f646f6b3c0cf980c9b448999049b"),
        (8, 2, 6, "35d7a144d039149b8ec93bc918ef04434873af335c75676a448e0b22790f374a",
         "c8e7c9709734ffb15e77bc4e6a36fae94a928fb46b0afa41ddccddcc7ec1e366"),
    ],
)
def test_hermitian_unitals_past_max_q_are_pinned(q, p, k, unital_sha, lines_sha):
    """H(7) and H(8), on planes built directly since `hermitian_plane` caps q
    at MAX_Q: their blocks and block lines, by SHA-256, as first built."""
    plane = ProjectivePlane(GaloisField(p, k))
    emb = embedded_unital(plane, self_conjugate_points(plane))
    assert emb.unital.num_points == q**3 + 1
    assert hashlib.sha256(serialize_json(emb.unital, f"hermitian-{q}").encode()).hexdigest() == unital_sha
    assert hashlib.sha256(repr(emb.line_coords).encode()).hexdigest() == lines_sha


def test_embedded_unital_keeps_the_planes_triples_for_points_given_as_lists(h2):
    """A point given as a list is the plane point it lists; the embedding
    holds the plane's hashable triple (a list would not equal it)."""
    plane = h2.plane
    emb = embedded_unital(plane, [list(p) for p in h2.point_coords])
    assert emb.unital.all_blocks == h2.unital.all_blocks
    assert (emb.point_coords, emb.line_coords) == (h2.point_coords, h2.line_coords)


def test_embedded_unital_rejects_non_unital():
    plane = hermitian_plane(2)
    with pytest.raises(NotAUnital):
        embedded_unital(plane, self_conjugate_points(plane)[:-1])


def _incidence_by_tests(plane):
    return tuple(sum(1 << j for j, l in enumerate(plane.lines) if on(plane, p, l)) for p in plane.points)


@pytest.mark.parametrize(
    "plane",
    [hermitian_plane(2), hermitian_plane(3), hermitian_plane(4)]
    + [ProjectivePlane(GaloisField(p, k)) for p, k in [(3, 1), (2, 1), (5, 1), (2, 3)]],
)
def test_incidence_table_matches_incidence_tests(plane):
    n = plane.order
    rows = tuple(map(plane.row, range(len(plane.lines))))
    assert len(rows) == n * n + n + 1
    assert rows == _incidence_by_tests(plane)
    for i in (-1, n * n + n + 1):
        with pytest.raises(IndexError):
            plane.row(i)
    assert all(row.bit_count() == n + 1 for row in rows)


def _incidence_by_spans(plane):
    """The incidence table as first built: for each line, the points b and
    a + t*b, normalized, where a and b are the points of the line with
    (1, 0) and (0, 1) on the two coordinates other than its last nonzero one."""
    f, rows = plane.field, []
    for l in plane.lines:
        k = 2 if l[2] else 1 if l[1] else 0  # l[k] == 1
        i, j = (c for c in range(3) if c != k)
        a, b = [0, 0, 0], [0, 0, 0]
        a[i], a[k] = 1, f.sub(0, l[i])
        b[j], b[k] = 1, f.sub(0, l[j])
        on_l = [b] + [[f.add(x, f.mul(t, y)) for x, y in zip(a, b)] for t in f.elements()]
        rows.append(sum(1 << plane.index(normalize(plane, v)) for v in on_l))
    return tuple(rows)


@pytest.mark.parametrize(
    "p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2)]
)
def test_incidence_table_matches_the_spans_of_each_line(p, k):
    plane = ProjectivePlane(GaloisField(p, k))
    assert tuple(map(plane.row, range(len(plane.lines)))) == _incidence_by_spans(plane)


def test_index_is_the_position_in_points_and_lines():
    plane = hermitian_plane(2)
    assert [plane.index(p) for p in plane.points] == list(range(len(plane.points)))
    assert [plane.index(l) for l in plane.lines] == list(range(len(plane.lines)))


@pytest.mark.parametrize(
    "v",
    [(0, 0, 2), (0, 0, 0), (4, 1, 1), (1, 2, 0), (2, 0, 0), (0, 16, 1), (-1, 0, 1), (1.0, 0, 1), ("a", 0, 1), (True, 0, 1)],
)
def test_index_and_points_on_line_reject_a_triple_not_normalized(v):
    plane = hermitian_plane(2)  # PG(2, 4)
    with pytest.raises(ValueError):
        plane.index(v)
    with pytest.raises(ValueError):
        plane.points_on_line(v)


def test_one_line_query_computes_one_row(monkeypatch):
    """On a fresh PG(2, 16), listing one line's points, or one point's
    lines, computes that one row and no other."""
    plane = ProjectivePlane(GaloisField(2, 4))
    rows, row = [], ProjectivePlane.row
    monkeypatch.setattr(ProjectivePlane, "row", lambda self, i: rows.append(i) or row(self, i))
    line, point = plane.lines[100], plane.points[200]
    assert plane.points_on_line(line) == tuple(p for p in plane.points if on(plane, p, line))
    assert plane.lines_through_point(point) == tuple(l for l in plane.lines if on(plane, point, l))
    assert rows == [100, 200]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_embedding_holds_only_tuples_besides_plane_and_unital(q):
    """The `lru_cache`d H(q) shares its maps with every caller, so none may be mutable."""
    emb = hermitian_unital(q)
    assert all(type(getattr(emb, name)) is tuple for name in emb._fields if name not in ("plane", "unital"))


def test_lines_through_point_by_incidence():
    plane = hermitian_plane(2)  # PG(2,4)
    for p in plane.points:
        assert plane.lines_through_point(p) == tuple(l for l in plane.lines if on(plane, p, l))


def test_line_secant_types():
    q = 3
    plane = hermitian_plane(q)
    curve = frozenset(self_conjugate_points(plane))
    self_conj = 0
    for line in plane.lines:
        t = sum(1 for p in plane.points_on_line(line) if p in curve)
        if conjugate(plane, line, line):
            assert t == 1
            self_conj += 1
        else:
            assert t == q + 1
    assert self_conj == q**3 + 1


def test_polar_triangle_completion_coordinate_axes():
    plane = hermitian_plane(2)
    l1, l2 = (1, 0, 0), (0, 1, 0)  # X1 = 0 and X2 = 0
    l3 = third_side(plane, l1, l2)
    assert l3 == (0, 0, 1)
    assert third_side(plane, l2, l1) == l3


@pytest.mark.parametrize("q,per_block", [(2, 1), (3, 3), (4, 6)])
def test_polar_triangle_counts(q, per_block):
    emb = hermitian_unital(q)
    for i in range(1, emb.unital.num_blocks + 1):
        assert len(polar_triangles_through_block(emb, i)) == per_block


def test_polar_triangle_lines_mutually_conjugate_not_self_conjugate():
    for q in (2, 3):
        emb = hermitian_unital(q)
        plane = emb.plane
        for tri in all_polar_triangles(emb):
            lines = [emb.line_coords[b - 1] for b in tri]
            for l in lines:
                assert not conjugate(plane, l, l)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert conjugate(plane, lines[i], lines[j])


def test_conjugate_line_meets_are_off_curve():
    emb = hermitian_unital(3)
    plane = emb.plane
    for tri in all_polar_triangles(emb):
        l1, l2 = emb.line_coords[tri[0] - 1], emb.line_coords[tri[1] - 1]
        m = cross(plane, l1, l2)
        assert not conjugate(plane, m, m)


def test_embedding_maps_are_consistent(h3):
    plane = h3.plane
    curve = set(self_conjugate_points(plane))
    assert set(h3.point_coords) == curve
    for i in range(1, h3.unital.num_blocks + 1):
        line = h3.line_coords[i - 1]
        on_line = {p for p in plane.points_on_line(line) if p in curve}
        assert {h3.point_coords[p - 1] for p in h3.unital.block(i)} == on_line


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_blocks_are_baer_sublines(q):
    emb = hermitian_unital(q)
    for i in range(1, emb.unital.num_blocks + 1):
        pts = [emb.point_coords[p - 1] for p in emb.unital.block(i)]
        assert set(pts) <= baer_subline(emb.plane, *pts[:3])


def test_perturbed_baer_subline_fails():
    """Three points of a line lie on one Baer subline only, so a block's
    first three points and any other point of its line, off the block,
    are no Baer subline, in either order."""
    emb = hermitian_unital(3)
    plane = emb.plane
    for i in range(1, emb.unital.num_blocks + 1):
        pts = [emb.point_coords[p - 1] for p in emb.unital.block(i)]
        off_block = [p for p in plane.points_on_line(emb.line_coords[i - 1]) if p not in pts]
        assert len(off_block) == 10 - 4  # q^2+1 points on the line, q+1 on the block
        for repl in off_block:
            cand = pts[:3] + [repl]
            assert not set(cand) <= baer_subline(plane, *cand[:3])
            assert not set(cand) <= baer_subline(plane, *cand[::-1][:3])


def test_three_points_vacuously_baer():
    emb = hermitian_unital(2)
    pts = [emb.point_coords[p - 1] for p in emb.unital.block(1)[:3]]
    assert set(pts) <= baer_subline(emb.plane, *pts)


def test_nuclei_of_a_line_plus_point():
    """A line with its point P replaced by a point Q off it: every line
    through a nucleus meets the line once, so the one through P holds Q,
    and the nuclei are the points of PQ other than P and Q."""
    plane = hermitian_plane(2)
    line = plane.lines[0]
    pts = list(plane.points_on_line(line))
    off = next(p for p in plane.points if not on(plane, p, line))
    s = frozenset(pts[:-1] + [off])
    expected = set(plane.points_on_line(cross(plane, pts[-1], off))) - {pts[-1], off}
    assert len(expected) == plane.order - 1
    assert set(nuclei(plane, s)) == expected


def test_full_points_subset_of_nuclei(h2):
    u = h2.unital
    for b1, b2 in u.disjoint_block_pairs():
        fp = full_points(u, b1, b2)
        assert {h2.point_coords[p - 1] for p in fp} <= set(pair_nuclei(h2, b1, b2))


def test_gamma1_on_h4_polar_pairs(h4, h4_triangles):
    p = 2  # characteristic for q = 4
    plane = h4.plane
    for b1, b2, _ in sorted(h4_triangles)[:10]:
        nuc = pair_nuclei(h4, b1, b2)
        group = gamma1(h4, b1, b2, nuc)
        order = group.order()
        assert order % p != 0
        assert 15 % order == 0  # divides q^2 - 1
        assert group.is_cyclic()
        l1 = h4.line_coords[b1 - 1]
        z = cross(plane, l1, h4.line_coords[b2 - 1])
        line = cross(plane, *nuc[:2]) if len(nuc) >= 2 else None
        assert line is None or all(on(plane, n, line) for n in nuc)  # the nuclei are collinear
        assert line is None or not on(plane, z, line)
        fixed = {t for i, t in enumerate(plane.points_on_line(l1)) if all(g[i] == i for g in group.generators)}
        assert order > 1 and z in fixed and len(fixed) == 2  # Z and one more common fixed point, V1
        (v1,) = fixed - {z}
        assert v1 not in {h4.point_coords[x - 1] for x in h4.unital.block(b1)}


def test_gamma1_on_nonconjugate_disjoint_pairs(h3):
    u = h3.unital
    plane = h3.plane
    count = 0
    for b1, b2 in u.disjoint_block_pairs():
        nuc = pair_nuclei(h3, b1, b2)
        group = gamma1(h3, b1, b2, nuc)
        order = group.order()
        assert group.is_cyclic()
        assert (3 * 3 - 1) % max(order, 1) == 0 or order == 1
        assert 8 % order == 0
        assert order % 3 != 0
        z = cross(plane, h3.line_coords[b1 - 1], h3.line_coords[b2 - 1])
        line = cross(plane, *nuc[:2]) if len(nuc) >= 2 else None
        assert line is None or all(on(plane, n, line) for n in nuc)  # the nuclei are collinear
        assert line is None or not on(plane, z, line)
        count += 1
        if count >= 20:
            break


def test_embedded_unital_rejects_repeated_point():
    plane = hermitian_plane(2)
    curve = self_conjugate_points(plane)
    with pytest.raises(NotAUnital):
        embedded_unital(plane, curve + curve[:1])
