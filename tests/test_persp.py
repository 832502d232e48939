import random

import pytest

from unitals import persp
from unitals.design import validate_unital
from unitals.groups import closure, structure_name
from unitals.persp import (
    NoFullPoints,
    NotAFullPoint,
    SameBlock,
    all_pair_full_points,
    full_points,
    persp_group,
    perspectivity_map,
)


def test_same_block_rejected(appendix):
    with pytest.raises(SameBlock):
        full_points(appendix, 5, 5)


def test_block_index_out_of_range_rejected(appendix):
    for b1, b2 in [(1, 0), (1, -1), (1, 209), (0, 1), (209, 1)]:
        with pytest.raises(IndexError):
            full_points(appendix, b1, b2)


def test_full_points_symmetry(appendix):
    for b1, b2 in [(1, 33), (1, 2), (10, 120), (7, 88)]:
        assert full_points(appendix, b1, b2) == full_points(appendix, b2, b1)


def test_appendix_pair_1_33_recovers_block_200(appendix):
    fp = full_points(appendix, 1, 33)
    assert fp == appendix.block(200)


def test_full_points_disjoint_from_both_blocks(appendix):
    for b1, b2 in [(1, 33), (2, 40), (5, 170)]:
        fp = set(full_points(appendix, b1, b2))
        assert not fp & appendix.block_set(b1)
        assert not fp & appendix.block_set(b2)


def test_generic_bounds_on_appendix_sample(appendix):
    n = appendix.order
    import random

    rng = random.Random(1)
    for _ in range(300):
        b1, b2 = rng.sample(range(1, appendix.num_blocks + 1), 2)
        fp = full_points(appendix, b1, b2)
        bound = n * n - 1 if appendix.blocks_disjoint(b1, b2) else n * n - n
        assert len(fp) <= bound


def test_hermitian_conjugate_pair_full_points_are_third_block(h4, h4_triangles):
    u = h4.unital
    tri = sorted(h4_triangles)[0]
    fp = full_points(u, tri[0], tri[1])
    assert set(fp) == u.block_set(tri[2])
    assert len(fp) == h4.q + 1


def test_perspectivity_is_position_bijection(appendix):
    fp = full_points(appendix, 1, 33)
    for p in fp:
        pm = perspectivity_map(appendix, 1, p, 33)
        assert sorted(pm) == list(range(appendix.order + 1))


def test_perspectivity_round_trip_is_identity(appendix):
    fp = full_points(appendix, 1, 33)
    p = fp[0]
    fwd = perspectivity_map(appendix, 1, p, 33)
    back = perspectivity_map(appendix, 33, p, 1)
    assert [back[i] for i in fwd] == list(range(appendix.order + 1))


def test_distinct_centers_give_distinct_maps(appendix):
    fp = full_points(appendix, 1, 33)
    maps = {perspectivity_map(appendix, 1, p, 33) for p in fp}
    assert len(maps) == len(fp)


def test_hermitian_projection_index_pattern(h4):
    """In curve coordinates A_i, B_j, C_k are collinear iff eps^(i+j+k) = 1,
    so projecting the X1=0 block from the X3=0 block sends index i to -i-k."""
    plane = h4.plane
    f = plane.field
    q = h4.q
    eps = f.roots_of_unity(q + 1)
    gen = next(e for e in eps if all(f.pow(e, d) != 1 for d in range(1, q + 1)))
    a_pts = [plane.normalize((0, 1, f.pow(gen, i))) for i in range(q + 1)]
    b_pts = [plane.normalize((f.pow(gen, j), 0, 1)) for j in range(q + 1)]
    c_pts = [plane.normalize((1, f.pow(gen, k), 0)) for k in range(q + 1)]
    u = h4.unital
    b_a = u.block_through(h4.coord_to_point[a_pts[0]], h4.coord_to_point[a_pts[1]])
    b_b = u.block_through(h4.coord_to_point[b_pts[0]], h4.coord_to_point[b_pts[1]])
    for k in range(q + 1):
        center = h4.coord_to_point[c_pts[k]]
        pm = perspectivity_map(u, b_a, center, b_b)
        pts_a = u.block(b_a)
        pts_b = u.block(b_b)
        for i in range(q + 1):
            src = pts_a.index(h4.coord_to_point[a_pts[i]])
            dst = pts_b.index(h4.coord_to_point[b_pts[(-i - k) % (q + 1)]])
            assert pm[src] == dst


def test_not_a_full_point_rejected(appendix):
    fp = set(full_points(appendix, 1, 33))
    non_full = next(
        p
        for p in appendix.points()
        if p not in fp and p not in appendix.block_set(1) | appendix.block_set(33)
    )
    with pytest.raises(NotAFullPoint):
        perspectivity_map(appendix, 1, non_full, 33)
    for on_block in (appendix.block(1)[0], appendix.block(33)[0]):
        with pytest.raises(NotAFullPoint):
            perspectivity_map(appendix, 1, on_block, 33)


def test_single_full_point_gives_trivial_group(h4, h4_pair_fp):
    pair = next(k for k, v in h4_pair_fp.items() if len(v) == 1)
    g = persp_group(h4.unital, *pair, fp=h4_pair_fp[pair])
    assert g.order() == 1
    assert g.degree == h4.q + 1


def test_persp_group_projects_once_per_full_point_and_once_back(appendix, monkeypatch):
    calls = []
    real = persp.perspectivity_map
    monkeypatch.setattr(persp, "perspectivity_map", lambda *args: calls.append(args) or real(*args))
    fp = full_points(appendix, 1, 33)
    persp_group(appendix, 1, 33, fp=fp)
    assert sorted(calls) == sorted([(appendix, 33, fp[0], 1)] + [(appendix, 1, p, 33) for p in fp])


def test_no_full_points_raises(appendix, appendix_pair_fp):
    pair = next(k for k, v in appendix_pair_fp.items() if len(v) == 0)
    with pytest.raises(NoFullPoints):
        persp_group(appendix, *pair, fp=())


def test_group_order_at_least_full_point_count(appendix, appendix_pair_fp):
    checked = 0
    for (b1, b2), fp in appendix_pair_fp.items():
        if len(fp) >= 2:
            g = persp_group(appendix, b1, b2, fp=fp)
            assert g.order() >= len(fp)
            checked += 1
            if checked >= 25:
                break


def test_persp_group_orders_symmetric(appendix):
    for b1, b2 in [(1, 33), (1, 48)]:
        assert persp_group(appendix, b1, b2).order() == persp_group(appendix, b2, b1).order()


def test_appendix_pair_1_33_group_is_s5(appendix):
    g = persp_group(appendix, 1, 33)
    assert g.order() == 120
    assert not g.is_cyclic()
    assert structure_name(g) == "S5"


def test_h3_disjoint_pair_groups_cyclic_dividing_8(h3):
    u = h3.unital
    for b1, b2 in list(u.disjoint_block_pairs())[:40]:
        fp = full_points(u, b1, b2)
        if len(fp) >= 2:
            g = persp_group(u, b1, b2, fp=fp)
            assert g.is_cyclic()
            assert 8 % g.order() == 0


def _full_points_by_definition(u) -> dict:
    """Full points of every ordered block pair, from the definition alone: a
    point P off both blocks is full exactly when every block through P that
    meets b1 also meets b2.  Uses only the block list."""
    blocks = [frozenset(b) for b in u.all_blocks]
    meets = [frozenset(j for j, c in enumerate(blocks) if b & c) for b in blocks]
    through = {p: [j for j, c in enumerate(blocks) if p in c] for p in u.points()}
    out = {}
    for i, bi in enumerate(blocks):
        joins = [(p, frozenset(c for c in through[p] if c in meets[i])) for p in u.points() if p not in bi]
        for j, bj in enumerate(blocks):
            if j != i:
                out[i + 1, j + 1] = tuple(p for p, js in joins if p not in bj and js <= meets[j])
    return out


def _relabelled_appendix(appendix):
    rng = random.Random(2026)
    labels = list(appendix.points())
    rng.shuffle(labels)
    blocks = [[labels[p - 1] for p in blk] for blk in appendix.all_blocks]
    rng.shuffle(blocks)
    return validate_unital(appendix.num_points, blocks)


@pytest.mark.parametrize("name", ["appendix", "H(2)", "H(3)", "relabelled appendix"])
def test_full_points_match_definition_on_all_ordered_pairs(name, appendix, h2, h3):
    u = {"appendix": appendix, "H(2)": h2.unital, "H(3)": h3.unital}.get(name) or _relabelled_appendix(appendix)
    expected = _full_points_by_definition(u)
    assert {pair: full_points(u, *pair) for pair in expected} == expected


@pytest.mark.parametrize("name", ["H(4)", "appendix"])
def test_all_pair_full_points_match_definition(name, appendix, h4):
    u = h4.unital if name == "H(4)" else appendix
    expected = {
        (b1, b2): fp
        for (b1, b2), fp in _full_points_by_definition(u).items()
        if b1 < b2 and not u.block_set(b1) & u.block_set(b2)
    }
    got = all_pair_full_points(u)
    assert got == expected
    assert list(got) == sorted(expected)


def _persp_group_by_definition(u):
    """For a pair (b1, b2), the elements of its perspectivity group, or None
    when it has no full point, from the definition and the block sets alone:
    a full point P off both blocks has every join to b1 meeting b2; center P
    sends q on b1 to the point of b2 on the block through P and q; and the
    to-and-back maps phi_Q^-1 phi_P over all ordered pairs of full points
    P, Q generate the group."""
    sets = [frozenset(b) for b in u.all_blocks]
    join = {(p, q): s for s in sets for p in s for q in s if p != q}

    def project(center, src, dst):
        return {q: next(iter(join[center, q] & sets[dst - 1])) for q in sets[src - 1]}

    def elements(b1, b2):
        s1, s2 = sets[b1 - 1], sets[b2 - 1]
        fp = [p for p in u.points() if p not in s1 | s2 and all(join[p, q] & s2 for q in s1)]
        if not fp:
            return None
        pos1 = {q: i for i, q in enumerate(sorted(s1))}
        fwd = {p: project(p, b1, b2) for p in fp}
        back = {p: project(p, b2, b1) for p in fp}
        return closure([tuple(pos1[back[q][fwd[p][x]]] for x in sorted(s1)) for p in fp for q in fp]).elements

    return elements


@pytest.mark.parametrize("name", ["appendix", "H(3)"])
def test_persp_group_matches_definition(name, appendix, appendix_pair_fp, h3):
    """Every disjoint pair with >= 2 full points, both ways round."""
    u = appendix if name == "appendix" else h3.unital
    pair_fp = appendix_pair_fp if name == "appendix" else all_pair_full_points(u)
    reference = _persp_group_by_definition(u)
    pairs = [(b1, b2, fp) for (b1, b2), fp in pair_fp.items() if len(fp) >= 2]
    pairs += [(b2, b1, fp) for b1, b2, fp in pairs]
    assert len(pairs) >= 1000
    got = {(b1, b2): persp_group(u, b1, b2, fp=fp).elements for b1, b2, fp in pairs}
    assert got == {(b1, b2): reference(b1, b2) for b1, b2, _ in pairs}


def test_persp_group_of_intersecting_pairs_matches_definition(appendix, h4):
    """A fixed-seed sample of intersecting pairs.  In these unitals no
    intersecting pair has a full point, so the definition gives no group and
    persp_group must refuse the pair."""
    rng = random.Random(4)
    for u in (appendix, h4.unital):
        reference = _persp_group_by_definition(u)
        ordered = (rng.sample(u.block_indices(), 2) for _ in range(800))
        pairs = [(b1, b2) for b1, b2 in ordered if not u.blocks_disjoint(b1, b2)]
        assert len(pairs) >= 250
        for b1, b2 in pairs:
            assert reference(b1, b2) is None
            with pytest.raises(NoFullPoints):
                persp_group(u, b1, b2)
