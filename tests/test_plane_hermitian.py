import random
from itertools import combinations

import pytest

from unitals.design import NotAUnital, validate_unital
from unitals.gf import GaloisField
from unitals.groups import closure
from unitals.hermitian import (
    NotCollinear,
    NotConjugate,
    all_polar_triangles,
    are_conjugate_lines,
    base_prime_power,
    embedded_unital,
    gamma1_analysis,
    hermitian_plane,
    hermitian_unital,
    is_baer_subline,
    is_self_conjugate,
    nuclei,
    polar_triangle_completion,
    polar_triangles_through_block,
    polarity_image,
    self_conjugate_points,
)
from unitals.persp import full_points
from unitals.plane import ProjectivePlane


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


def test_incidence_via_line_through():
    plane = ProjectivePlane(GaloisField(3))
    p, q = plane.points[0], plane.points[5]
    line = plane.line_through(p, q)
    assert plane.incident(p, line) and plane.incident(q, line)


def test_polarity_involution_and_fixed_coords():
    plane = hermitian_plane(3)
    for v in plane.points[:40]:
        assert polarity_image(plane, polarity_image(plane, v)) == v
    assert polarity_image(plane, (0, 0, 1)) == (0, 0, 1)
    assert polarity_image(plane, (1, 0, 0)) == (1, 0, 0)


def test_polarity_reverses_incidence():
    for q in (2, 3):
        plane = hermitian_plane(q)
        for p in plane.points[::5]:
            for l in plane.lines[::7]:
                assert plane.incident(p, l) == plane.incident(polarity_image(plane, l), polarity_image(plane, p))


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
    assert (emb.point_coords, emb.line_coords, emb.line_to_block) == (built.point_coords, built.line_coords, built.line_to_block)


def _reference_hermitian(q):
    """H(q) as first built, from incidence alone: the curve points on each
    line that is not self-conjugate, lines in plane order."""
    plane = hermitian_plane(q)
    curve = [p for p in plane.points if plane.incident(p, polarity_image(plane, p))]
    ids = {p: i for i, p in enumerate(curve, start=1)}
    blocks, lines = [], []
    for l in plane.lines:
        if not plane.incident(polarity_image(plane, l), l):
            blocks.append(tuple(ids[p] for p in curve if plane.incident(p, l)))
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
        on_line.setdefault(plane.line_through(p, q), set()).update((i, j))
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
    curve point, the zero vector and a coordinate outside the field are not
    plane points, even where they stand for the point they replace."""
    plane = hermitian_plane(2)  # PG(2, 4)
    curve = self_conjugate_points(plane)
    f = plane.field
    affine = next(p for p in curve if p[2])
    at_infinity = next(p for p in curve if not p[2])
    scaled = [tuple(f.mul(c, 2) for c in p) for p in (affine, at_infinity)]
    for p, bad in [(affine, scaled[0]), (at_infinity, scaled[1]), (affine, (0, 0, 0)), (affine, affine[:2] + (5,))]:
        with pytest.raises(NotAUnital):
            embedded_unital(plane, [bad if x == p else x for x in curve])
    with pytest.raises(NotAUnital):
        embedded_unital(plane, curve + (scaled[0],))


def test_embedded_unital_reads_no_incidence_cache(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("incidence cache read")

    monkeypatch.setattr(ProjectivePlane, "points_on_line", refuse)
    monkeypatch.setattr(ProjectivePlane, "lines_through_point", refuse)
    monkeypatch.setattr(ProjectivePlane, "incidence", property(refuse))
    plane = ProjectivePlane(GaloisField(2, 2))
    curve = self_conjugate_points(plane)
    emb = embedded_unital(plane, curve)
    assert (emb.unital.num_points, emb.unital.num_blocks, len(emb.line_coords)) == (9, 12, 12)


def test_embedded_unital_rejects_non_unital():
    plane = hermitian_plane(2)
    with pytest.raises(NotAUnital):
        embedded_unital(plane, self_conjugate_points(plane)[:-1])


def _incidence_by_tests(plane):
    return tuple(sum(1 << j for j, l in enumerate(plane.lines) if plane.incident(p, l)) for p in plane.points)


@pytest.mark.parametrize("plane", [hermitian_plane(2), hermitian_plane(3), hermitian_plane(4), ProjectivePlane(GaloisField(3))])
def test_incidence_table_matches_incidence_tests(plane):
    n = plane.order
    assert len(plane.incidence) == n * n + n + 1
    assert plane.incidence == _incidence_by_tests(plane)
    assert all(row.bit_count() == n + 1 for row in plane.incidence)


def test_index_is_the_position_in_points_and_lines():
    plane = hermitian_plane(2)
    assert [plane.index(p) for p in plane.points] == list(range(len(plane.points)))
    assert [plane.index(l) for l in plane.lines] == list(range(len(plane.lines)))


@pytest.mark.parametrize("v", [(0, 0, 2), (0, 0, 0), (4, 1, 1), (1, 2, 0), (2, 0, 0), (0, 16, 1), (-1, 0, 1)])
def test_index_and_points_on_line_reject_a_triple_not_normalized(v):
    plane = hermitian_plane(2)  # PG(2, 4)
    with pytest.raises(ValueError):
        plane.index(v)
    with pytest.raises(ValueError):
        plane.points_on_line(v)


def test_lines_through_point_by_incidence():
    plane = hermitian_plane(2)  # PG(2,4)
    for p in plane.points:
        assert plane.lines_through_point(p) == tuple(l for l in plane.lines if plane.incident(p, l))


def test_embedding_rejects_out_of_range_indices(h2):
    # H(2) has 12 blocks and 9 points
    for i in (0, -1, 13):
        with pytest.raises(IndexError):
            h2.block_line(i)
        with pytest.raises(IndexError):
            polar_triangles_through_block(h2, i)
    for pid in (0, -1, 10):
        with pytest.raises(IndexError):
            h2.point(pid)


def test_line_secant_types():
    q = 3
    plane = hermitian_plane(q)
    curve = frozenset(self_conjugate_points(plane))
    self_conj = 0
    for line in plane.lines:
        t = sum(1 for p in plane.points_on_line(line) if p in curve)
        if is_self_conjugate(plane, line):
            assert t == 1
            self_conj += 1
        else:
            assert t == q + 1
    assert self_conj == q**3 + 1


def test_polar_triangle_completion_coordinate_axes():
    plane = hermitian_plane(2)
    l1, l2 = (1, 0, 0), (0, 1, 0)  # X1 = 0 and X2 = 0
    l3 = polar_triangle_completion(plane, l1, l2)
    assert l3 == (0, 0, 1)
    assert polar_triangle_completion(plane, l2, l1) == l3


def test_polar_triangle_completion_rejects_nonconjugate():
    plane = hermitian_plane(2)
    emb = hermitian_unital(2)
    l1 = emb.block_line(1)
    other = next(
        l
        for l in plane.lines
        if l != l1 and not is_self_conjugate(plane, l) and not are_conjugate_lines(plane, l1, l)
    )
    with pytest.raises(NotConjugate):
        polar_triangle_completion(plane, l1, other)


@pytest.mark.parametrize("q,per_block", [(2, 1), (3, 3), (4, 6)])
def test_polar_triangle_counts(q, per_block):
    emb = hermitian_unital(q)
    for i in emb.unital.block_indices():
        assert len(polar_triangles_through_block(emb, i)) == per_block


def test_polar_triangle_lines_mutually_conjugate_not_self_conjugate():
    for q in (2, 3):
        emb = hermitian_unital(q)
        plane = emb.plane
        for tri in all_polar_triangles(emb):
            lines = [emb.block_line(b) for b in tri]
            for l in lines:
                assert not is_self_conjugate(plane, l)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert are_conjugate_lines(plane, lines[i], lines[j])


def test_conjugate_line_meets_are_off_curve():
    emb = hermitian_unital(3)
    plane = emb.plane
    for tri in all_polar_triangles(emb):
        l1, l2 = emb.block_line(tri[0]), emb.block_line(tri[1])
        assert not is_self_conjugate(plane, plane.meet(l1, l2))


def test_embedding_maps_are_consistent(h3):
    plane = h3.plane
    curve = set(self_conjugate_points(plane))
    assert set(h3.point_coords) == curve
    for i in h3.unital.block_indices():
        line = h3.block_line(i)
        on_line = {p for p in plane.points_on_line(line) if p in curve}
        assert {h3.point(p) for p in h3.unital.block(i)} == on_line


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_blocks_are_baer_sublines(q):
    emb = hermitian_unital(q)
    for i in emb.unital.block_indices():
        pts = [emb.point(p) for p in emb.unital.block(i)]
        assert is_baer_subline(emb.plane, pts)


def _baer_subline_through(plane, p0, p1, p2):
    """The q+1 points a*P0' + b*P1' over (a : b) in PG(1, q), with P0 and P1
    scaled by search so that P2 = P0' + P1'."""
    f = plane.field
    q = f.subfield_order
    subfield = [x for x in f.elements() if f.pow(x, q) == x]
    scale = next(s for s in f.elements() if plane.normalize([f.add(f.mul(s, x), y) for x, y in zip(p0, p1)]) == p2)
    p0 = [f.mul(scale, x) for x in p0]
    return {tuple(p1)} | {plane.normalize([f.add(x, f.mul(t, y)) for x, y in zip(p0, p1)]) for t in subfield}


def _baer_cases(q):
    """Every block of H(q), shuffled, each block with one point swapped for
    another point of its line, and seeded random collinear sets."""
    emb = hermitian_unital(q)
    plane, rng = emb.plane, random.Random(q)
    for i in emb.unital.block_indices():
        pts = [emb.point(p) for p in emb.unital.block(i)]
        rng.shuffle(pts)
        yield pts
        off_block = [p for p in plane.points_on_line(emb.block_line(i)) if p not in pts]
        yield pts[:-1] + [rng.choice(off_block)]
        yield [rng.choice(off_block)] + pts[1:]
    for _ in range(300):
        line = rng.choice(plane.lines)
        yield rng.sample(plane.points_on_line(line), rng.randint(3, q + 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_baer_subline_matches_the_subline_through_three_points(q):
    plane = hermitian_plane(q)
    verdicts = []
    for pts in _baer_cases(q):
        expected = set(pts) <= _baer_subline_through(plane, *pts[:3])
        assert is_baer_subline(plane, pts) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_perturbed_baer_subline_fails():
    """Three points of a line lie on one Baer subline only, so a block's
    first three points and any other point of its line, off the block,
    are no Baer subline, in either order."""
    emb = hermitian_unital(3)
    plane = emb.plane
    for i in emb.unital.block_indices():
        pts = [emb.point(p) for p in emb.unital.block(i)]
        off_block = [p for p in plane.points_on_line(emb.block_line(i)) if p not in pts]
        assert len(off_block) == 10 - 4  # q^2+1 points on the line, q+1 on the block
        for repl in off_block:
            cand = pts[:3] + [repl]
            assert not is_baer_subline(plane, cand)
            assert not is_baer_subline(plane, cand[::-1])


def test_three_points_vacuously_baer():
    emb = hermitian_unital(2)
    pts = [emb.point(p) for p in emb.unital.block(1)[:3]]
    assert is_baer_subline(emb.plane, pts)


def test_baer_subline_noncollinear_rejected():
    plane = hermitian_plane(2)
    with pytest.raises(NotCollinear):
        is_baer_subline(plane, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])


def test_nuclei_of_a_line_plus_point():
    # replacing one point of a full line by an off-line point: brute force
    # agrees with the helper
    plane = hermitian_plane(2)
    line = plane.lines[0]
    pts = list(plane.points_on_line(line))
    off = next(p for p in plane.points if not plane.incident(p, line))
    s = frozenset(pts[:-1] + [off])
    result = set(nuclei(plane, s))
    brute = set()
    for p in plane.points:
        if p in s:
            continue
        if all(sum(1 for x in plane.points_on_line(l) if x in s) == 1 for l in plane.lines_through_point(p)):
            brute.add(p)
    assert result == brute


def test_nuclei_match_line_counts_on_every_disjoint_pair_of_h3(h3):
    """The nuclei of b1 ∪ (l2 \\ b2) by counting, with each line's points
    found by incidence tests."""
    plane, u = h3.plane, h3.unital
    on_line = {l: [p for p in plane.points if plane.incident(p, l)] for l in plane.lines}
    for b1, b2 in u.disjoint_block_pairs():
        b2_pts = {h3.point(p) for p in u.block(b2)}
        s = {h3.point(p) for p in u.block(b1)} | {p for p in on_line[h3.block_line(b2)] if p not in b2_pts}
        count = {l: sum(1 for p in on_line[l] if p in s) for l in plane.lines}
        # by duality, the lines through p are the points on the line with p's coordinates
        brute = tuple(p for p in plane.points if p not in s and all(count[l] == 1 for l in on_line[p]))
        assert nuclei(plane, s) == brute


def test_nuclei_wrong_size_rejected():
    plane = hermitian_plane(2)
    with pytest.raises(ValueError, match="points"):
        nuclei(plane, plane.points[:3])


def test_full_points_subset_of_nuclei(h2):
    u = h2.unital
    plane = h2.plane
    for b1, b2 in u.disjoint_block_pairs():
        fp = full_points(u, b1, b2)
        l2 = h2.block_line(b2)
        script_b = {h2.point(p) for p in u.block(b1)} | (
            set(plane.points_on_line(l2)) - {h2.point(p) for p in u.block(b2)}
        )
        nuc = set(nuclei(plane, script_b))
        assert {h2.point(p) for p in fp} <= nuc


def test_gamma1_on_h4_polar_pairs(h4, h4_triangles):
    p = 2  # characteristic for q = 4
    for tri in sorted(h4_triangles)[:10]:
        rec = gamma1_analysis(h4, tri[0], tri[1])
        assert rec.order % p != 0
        assert 15 % rec.order == 0  # divides q^2 - 1
        assert rec.is_cyclic
        assert rec.nuclei_collinear
        assert not rec.z_on_nuclei_line
        assert rec.v1 is not None
        b1_pts = {h4.point(x) for x in h4.unital.block(tri[0])}
        assert rec.v1 not in b1_pts and rec.v1 != rec.z


def test_gamma1_on_nonconjugate_disjoint_pairs(h3):
    u = h3.unital
    count = 0
    for b1, b2 in u.disjoint_block_pairs():
        rec = gamma1_analysis(h3, b1, b2)
        assert rec.is_cyclic
        assert (3 * 3 - 1) % max(rec.order, 1) == 0 or rec.order == 1
        assert 8 % rec.order == 0
        assert rec.order % 3 != 0
        assert rec.nuclei_collinear
        if len(rec.nuclei) >= 2:
            assert not rec.z_on_nuclei_line
        count += 1
        if count >= 20:
            break


def _gamma1_by_definition(emb, b1, b2, nuc):
    """Closure of every to-and-back projection l1 -> l2 -> l1, from one
    nucleus forward and from another (or the same) one back."""
    plane = emb.plane
    l1, l2 = emb.block_line(b1), emb.block_line(b2)
    l1_pts, l2_pts = plane.points_on_line(l1), plane.points_on_line(l2)

    def project(center, points, line):
        return {t: plane.meet(plane.line_through(t, center), line) for t in points}

    fwd = {n: project(n, l1_pts, l2) for n in nuc}
    back = {n: project(n, l2_pts, l1) for n in nuc}
    index = {t: i for i, t in enumerate(l1_pts)}
    gens = [tuple(index[back[m][fwd[n][t]]] for t in l1_pts) for n in nuc for m in nuc]
    return closure(gens or [tuple(range(len(l1_pts)))]).elements


def test_gamma1_group_matches_definition(h3, h4, h4_triangles):
    """Every disjoint pair of H(3), and the first two blocks of every polar
    triangle of H(4)."""
    cases = [(h3, pair) for pair in h3.unital.disjoint_block_pairs()] + [(h4, tri[:2]) for tri in sorted(h4_triangles)]
    assert len(cases) == 945 + 416
    for emb, (b1, b2) in cases:
        rec = gamma1_analysis(emb, b1, b2)
        assert rec.group.elements == _gamma1_by_definition(emb, b1, b2, rec.nuclei)


def test_gamma1_requires_disjoint_blocks(h2):
    with pytest.raises(ValueError, match="disjoint"):
        gamma1_analysis(h2, 1, 2)


def test_embedded_unital_rejects_repeated_point():
    plane = hermitian_plane(2)
    curve = self_conjugate_points(plane)
    with pytest.raises(NotAUnital):
        embedded_unital(plane, curve + curve[:1])
