import pytest

from unitals.design import NotAUnital, validate_unital


def ag23_lines():
    """The 12 lines of AG(2,3), found by brute force over point triples.

    Points are (x, y) over GF(3), numbered 1..9; a line is the set of all
    points collinear with a fixed pair.
    """
    pts = [(x, y) for x in range(3) for y in range(3)]
    num = {p: i + 1 for i, p in enumerate(pts)}
    lines = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            line = []
            for p in pts:
                det = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if det % 3 == 0:
                    line.append(num[p])
            lines.add(tuple(sorted(line)))
    return sorted(lines)


def test_ag23_is_order2_unital():
    lines = ag23_lines()
    assert len(lines) == 12
    u = validate_unital(9, lines)
    assert u.order == 2
    assert u.num_blocks == 12


def test_duplicate_block_rejected():
    lines = ag23_lines()
    bad = lines[:11] + [lines[0]]
    with pytest.raises(NotAUnital, match="covered"):
        validate_unital(9, bad)


def test_wrong_point_count_rejected():
    with pytest.raises(NotAUnital, match="point count"):
        validate_unital(10, ag23_lines())


def test_wrong_block_count_rejected():
    with pytest.raises(NotAUnital, match="block count"):
        validate_unital(9, ag23_lines()[:11])


def test_out_of_range_point_rejected():
    lines = [list(b) for b in ag23_lines()]
    lines[3] = [7, 8, 99]
    with pytest.raises(NotAUnital):
        validate_unital(9, lines)


def test_appendix_validates(appendix):
    assert appendix.order == 4
    assert appendix.num_points == 65
    assert appendix.num_blocks == 208


def test_join_row_appendix(appendix):
    assert appendix.join_row(1)[2 - 1] == 1
    assert appendix.block(1) == (1, 2, 55, 64, 65)
    assert appendix.join_row(3)[5 - 1] == 33
    assert appendix.block(33) == (3, 5, 10, 39, 59)


def test_join_row_symmetry(appendix):
    for p, q in [(1, 2), (17, 60), (5, 44)]:
        assert appendix.join_row(p)[q - 1] == appendix.join_row(q)[p - 1]


def test_blocks_disjoint(appendix):
    assert appendix.blocks_disjoint(1, 33)
    assert not appendix.blocks_disjoint(1, 2)  # share point 1
    assert not appendix.blocks_disjoint(7, 7)


def test_blocks_disjoint_rejects_out_of_range_equal_indices(appendix):
    for i in (0, -1, appendix.num_blocks + 1):
        with pytest.raises(IndexError):
            appendix.blocks_disjoint(i, i)


def test_replication_number(appendix):
    # every point lies on (num_points - 1) / n = n^2 blocks
    n = appendix.order
    counts = {p: 0 for p in appendix.points()}
    for blk in appendix.all_blocks:
        for p in blk:
            counts[p] += 1
    assert set(counts.values()) == {n * n}


def test_pair_lookup_agrees_with_scan(appendix):
    import random

    rng = random.Random(7)
    for _ in range(200):
        p, q = rng.sample(range(1, 66), 2)
        scan = [i for i in appendix.block_indices() if {p, q} <= set(appendix.block(i))]
        assert scan == [appendix.join_row(p)[q - 1]]


def test_indices_below_one_rejected(appendix):
    # negative indexing used to wrap 0 to the last block or point row
    from unitals.persp import full_points

    for i in (0, -1):
        with pytest.raises(IndexError):
            appendix.block(i)
    with pytest.raises(IndexError):
        full_points(appendix, 0, 1)


def test_join_row_holds_both_points(h2):
    u = h2.unital
    for p in u.points():
        row = u.join_row(p)
        assert len(row) == u.num_points
        assert row[p - 1] == 0
        for q in u.points():
            if q != p:
                assert {p, q} <= set(u.block(row[q - 1]))


def test_join_row_rejects_ids_outside_range(h2):
    for p in (0, -1, -9, h2.unital.num_points + 1):
        with pytest.raises(IndexError):
            h2.unital.join_row(p)


@pytest.mark.parametrize("ids", [[0, 1], [-1, 1, 2, 3, 4], [1, 2, 3, 4, 66]])
def test_secants_rejects_point_ids_outside_range(appendix, ids):
    with pytest.raises(IndexError):
        appendix.secants(ids)
