import random
from itertools import permutations, product

import pytest

from unitals.nets import (
    LatinSquare,
    NotA3Net,
    TooFewBlocks,
    blocks_inside,
    find_dual_3nets,
    is_cyclic_3net,
    is_dual_knet,
    is_group_based,
    latin_square_from_3net,
    max_knet_check,
    persp_groups_of_3net,
    satisfies_quadrangle_criterion,
)
from unitals.groups import closure, compose
from unitals.persp import full_points

APPENDIX_NET = (1, 33, 200)

# frozen from the discovery run over the appendix unital; the square of the
# net {1,33,200} with sorted point labeling
APPENDIX_SQUARE = (
    (3, 1, 4, 0, 2),
    (0, 3, 1, 2, 4),
    (1, 0, 2, 4, 3),
    (2, 4, 0, 3, 1),
    (4, 2, 3, 1, 0),
)


def z5_table():
    return LatinSquare(5, tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5)))


def test_appendix_net_is_dual_3net(appendix):
    assert is_dual_knet(appendix, APPENDIX_NET)


def test_hermitian_polar_triangles_are_3nets(h4, h4_triangles):
    for tri in sorted(h4_triangles)[:5]:
        assert is_dual_knet(h4.unital, tri)


def test_non_net_rejected(appendix):
    # blocks 1 and 33 are disjoint; block 2 meets block 1 in point 1
    assert not is_dual_knet(appendix, (1, 33, 2))


def test_too_few_blocks(appendix):
    with pytest.raises(TooFewBlocks):
        is_dual_knet(appendix, (1, 33))


def test_find_dual_3nets_h4_counts(h4, h4_pair_fp, h4_triangles):
    nets = find_dual_3nets(h4.unital, pair_full_points=h4_pair_fp)
    assert len(nets) == 208 * 6 // 3  # 416
    assert set(nets) == h4_triangles


def test_find_dual_3nets_appendix_contains_golden(appendix, appendix_pair_fp):
    nets = find_dual_3nets(appendix, pair_full_points=appendix_pair_fp)
    assert APPENDIX_NET in nets


def test_order_3_unitals_have_no_3nets(h3):
    assert find_dual_3nets(h3.unital) == ()


def test_lemma25_symmetry_on_discovered_nets(appendix, appendix_pair_fp):
    nets = find_dual_3nets(appendix, pair_full_points=appendix_pair_fp)
    for b1, b2, b3 in nets[:10]:
        assert appendix.block_set(b3) <= set(full_points(appendix, b1, b2))
        assert appendix.block_set(b1) <= set(full_points(appendix, b2, b3))
        assert appendix.block_set(b2) <= set(full_points(appendix, b1, b3))


def test_two_blocks_in_one_full_point_set_are_disjoint(appendix, appendix_pair_fp):
    for (b1, b2), fp in appendix_pair_fp.items():
        inside = blocks_inside(appendix, fp)
        for i, bi in enumerate(inside):
            for bj in inside[i + 1 :]:
                assert appendix.blocks_disjoint(bi, bj)


def test_max_knet_bound(appendix, h4):
    assert max_knet_check(appendix, APPENDIX_NET)
    assert not max_knet_check(appendix, (1, 33, 200, 5))  # k=4 > n-1


def test_latin_square_from_appendix_net(appendix):
    sq = latin_square_from_3net(appendix, APPENDIX_NET)
    assert sq.rows == APPENDIX_SQUARE


def test_latin_square_rejects_non_net(appendix):
    with pytest.raises(NotA3Net):
        latin_square_from_3net(appendix, (1, 33, 2))
    with pytest.raises(NotA3Net):
        latin_square_from_3net(appendix, (1, 33, 200, 5))


def _square_by_definition(u, net):
    """Cell (i, j): the position in b3 of the point of b3 on the block through
    the i-th point of b1 and the j-th point of b2, from the block sets alone."""
    b1, b2, b3 = (sorted(u.block_set(b)) for b in sorted(net))
    sets = [frozenset(b) for b in u.all_blocks]
    return tuple(
        tuple(b3.index(next(iter(next(s for s in sets if {p, q} <= s) & set(b3)))) for q in b2) for p in b1
    )


def test_latin_square_raises_exactly_off_dual_3nets(appendix, appendix_pair_fp, h2):
    """All appendix nets, fixed-seed triples (1, b, c) of the appendix unital
    and every ordered triple of H(2), repeated blocks included."""
    nets = find_dual_3nets(appendix, pair_full_points=appendix_pair_fp)
    assert len(nets) == 86
    rng = random.Random(11)
    cases = [(appendix, net) for net in nets]
    cases += [(appendix, (1, *rng.sample(range(2, appendix.num_blocks + 1), 2))) for _ in range(2000)]
    cases += [(h2.unital, t) for t in product(h2.unital.block_indices(), repeat=3)]
    found = 0
    for u, net in cases:
        if is_dual_knet(u, net):
            found += 1
            assert latin_square_from_3net(u, net).rows == _square_by_definition(u, net)
        else:
            with pytest.raises(NotA3Net):
                latin_square_from_3net(u, net)
    assert found > 86


def test_latin_square_row_column_property(h4, h4_triangles):
    for tri in sorted(h4_triangles)[:5]:
        latin_square_from_3net(h4.unital, tri)  # __post_init__ validates


def test_hermitian_triangle_square_is_cyclic_pattern(h2):
    tri = find_dual_3nets(h2.unital)[0]
    sq = latin_square_from_3net(h2.unital, tri)
    assert is_group_based(sq) == "C3"
    assert is_cyclic_3net(h2.unital, tri)


def test_h4_triangle_square_is_c5(h4, h4_triangles):
    tri = sorted(h4_triangles)[0]
    sq = latin_square_from_3net(h4.unital, tri)
    assert is_group_based(sq) == "C5"


def test_latin_square_needs_m_rows_of_m_symbols():
    rows = z5_table().rows
    with pytest.raises(ValueError):
        LatinSquare(5, rows + rows[:1])
    with pytest.raises(ValueError):
        LatinSquare(5, rows[:4])
    with pytest.raises(ValueError):
        LatinSquare(5, tuple(r + r[:1] for r in rows))


def _parastrophes(rows):
    """The six squares obtained by permuting the (row, column, symbol) roles."""
    m = len(rows)
    triples = [(i, j, rows[i][j]) for i in range(m) for j in range(m)]
    for perm in permutations(range(3)):
        grid = [[0] * m for _ in range(m)]
        for t in triples:
            grid[t[perm[0]]][t[perm[1]]] = t[perm[2]]
        yield LatinSquare(m, tuple(map(tuple, grid)))


def _group_table(*generators):
    elems = sorted(closure(generators).elements)
    index = {g: i for i, g in enumerate(elems)}
    return tuple(tuple(index[compose(a, b)] for b in elems) for a in elems)


def _switched_c8_table():
    """C8's table with the intercalate on rows and columns 0, 4 switched."""
    rows = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    rows[0][0], rows[0][4], rows[4][0], rows[4][4] = 4, 0, 0, 4
    return tuple(map(tuple, rows))


MAIN_CLASS_CASES = (
    (_group_table((1, 2, 3, 0)), "C4"),
    (_group_table((1, 0, 3, 2), (2, 3, 0, 1)), "C2 x C2"),
    (z5_table().rows, "C5"),
    (_group_table((1, 2, 3, 4, 5, 0)), "C6"),
    (_group_table((1, 0, 2), (1, 2, 0)), "S3"),
    (_group_table((1, 2, 3, 4, 5, 6, 7, 0)), "C8"),
    (_group_table((1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)), "C4 x C2"),
    (_group_table((1, 2, 3, 0), (3, 2, 1, 0)), "D8"),
    # left multiplication by i and j on 1, i, j, k, -1, -i, -j, -k
    (_group_table((1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)), "Q8"),
    (APPENDIX_SQUARE, None),
    (_switched_c8_table(), None),
)


def test_group_based_invariant_across_parastrophes():
    """Every parastrophe of fixed-seed isotopes keeps the group's name, and
    the quadrangle criterion agrees."""
    rng = random.Random(5)
    for rows, name in MAIN_CLASS_CASES:
        m = len(rows)
        for _ in range(2):
            rp, cp, sp = (rng.sample(range(m), m) for _ in range(3))
            isotope = tuple(tuple(sp[rows[rp[i]][cp[j]]] for j in range(m)) for i in range(m))
            for sq in _parastrophes(isotope):
                assert is_group_based(sq) == name
                assert satisfies_quadrangle_criterion(sq) == (name is not None)


def test_z5_is_group_based():
    assert is_group_based(z5_table()) == "C5"
    assert satisfies_quadrangle_criterion(z5_table())


def test_appendix_square_not_group_based():
    sq = LatinSquare(5, APPENDIX_SQUARE)
    assert is_group_based(sq) is None
    assert not satisfies_quadrangle_criterion(sq)


def test_appendix_net_not_cyclic(appendix):
    assert not is_cyclic_3net(appendix, APPENDIX_NET)


def test_quadrangle_oracle_agrees_on_random_isotopes():
    rng = random.Random(2024)

    def shuffle(sq):
        rp, cp, sp = list(range(5)), list(range(5)), list(range(5))
        rng.shuffle(rp)
        rng.shuffle(cp)
        rng.shuffle(sp)
        return LatinSquare(5, tuple(tuple(sp[sq.rows[rp[i]][cp[j]]] for j in range(5)) for i in range(5)))

    for base, expected in ((z5_table(), "C5"), (LatinSquare(5, APPENDIX_SQUARE), None)):
        for _ in range(50):
            s = shuffle(base)
            assert is_group_based(s) == expected
            assert satisfies_quadrangle_criterion(s) == (expected is not None)


def test_cyclic_net_iff_all_six_persp_groups_cyclic(appendix, h2):
    for u, net in [(h2.unital, find_dual_3nets(h2.unital)[0]), (appendix, APPENDIX_NET)]:
        groups = persp_groups_of_3net(u, net)
        assert len(groups) == 6
        all_cyclic = all(g.is_cyclic() and g.order() == u.order + 1 for g in groups.values())
        assert is_cyclic_3net(u, net) == all_cyclic
