import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from unitals.nets import (
    LatinSquare,
    NotA3Net,
    TooFewBlocks,
    find_dual_3nets,
    is_cyclic_3net,
    is_cyclic_square,
    is_dual_knet,
    is_group_based,
    latin_square_from_3net,
)
from unitals.design import AbstractUnital, block_ids, validate_unital
from unitals.groups import closure, compose
from unitals.hermitian import hermitian_unital
from unitals.persp import full_point_rows, full_points, persp_group

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


def satisfies_quadrangle_criterion(sq: LatinSquare) -> bool:
    """Independent oracle for group-basedness (Frolov's quadrangle criterion).

    Whenever two quadrangles of cells agree in three products, they agree in
    the fourth.  Uses row/column inverses to enumerate only consistent cell
    quadruples.
    """
    rows = sq.rows
    m = sq.m
    row_inv = [[0] * m for _ in range(m)]  # row_inv[a][v] = column where row a holds v
    col_inv = [[0] * m for _ in range(m)]  # col_inv[b][v] = row where column b holds v
    for a in range(m):
        for b in range(m):
            v = rows[a][b]
            row_inv[a][v] = b
            col_inv[b][v] = a
    for a1 in range(m):
        for b1 in range(m):
            v = rows[a1][b1]
            for a2 in range(m):
                b2 = row_inv[a2][v]
                for b3 in range(m):
                    b4 = row_inv[a2][rows[a1][b3]]
                    for a3 in range(m):
                        a4 = col_inv[b2][rows[a3][b1]]
                        if rows[a3][b3] != rows[a4][b4]:
                            return False
    return True


def blocks_inside(u: AbstractUnital, point_set) -> tuple[int, ...]:
    """Indices of blocks wholly contained in the given point set."""
    pts = set(point_set)
    return tuple(c for c in block_ids(u.secants(pts)) if pts.issuperset(u.block(c)))


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


def _joins(u):
    """(p, q) -> the block through p and q, as a point set, from a scan of the blocks."""
    return {(p, q): s for s in map(frozenset, u.all_blocks) for p in s for q in s if p != q}


def _is_dual_knet_by_definition(u, blocks, join):
    """Both dual k-net conditions read off the block sets alone: pairwise
    disjoint blocks, and the block `join[p, q]` joining any two points on
    different blocks meets every block exactly once."""
    blocks = list(blocks)
    if len(set(blocks)) != len(blocks):
        return False
    sets = [frozenset(u.block(b)) for b in blocks]
    for s1, s2 in combinations(sets, 2):
        if s1 & s2:
            return False
    for si, sj in combinations(sets, 2):
        for p in si:
            for q in sj:
                if any(len(join[p, q] & s) != 1 for s in sets):
                    return False
    return True


def test_dual_knet_matches_definition(appendix, h2, h4):
    """Every ordered triple of H(2) blocks, repeats included; fixed-seed
    appendix triples and 4-sets; every net of the appendix unital and of
    H(4), that net with its first block disjoint from all three, and with
    the first two disjoint blocks disjoint from all three, where two exist."""
    rng = random.Random(3)
    cases = [(h2.unital, t) for t in product(h2.unital.block_indices(), repeat=3)]
    cases += [(appendix, rng.sample(appendix.block_indices(), k)) for k in (3, 4) for _ in range(2000)]
    extended = 0
    for u in (appendix, h4.unital):
        for net in find_dual_3nets(u):
            met = u.block_meets[net[0] - 1] | u.block_meets[net[1] - 1] | u.block_meets[net[2] - 1]
            free = [c for c in u.block_indices() if not met >> c - 1 & 1]
            cases += [(u, net), (u, net + (free[0],))]
            pair = next(((c, d) for c, d in combinations(free, 2) if u.blocks_disjoint(c, d)), None)
            if pair:
                cases.append((u, net + pair))
                extended += 1
    assert extended > 0
    joins = {u: _joins(u) for u in (h2.unital, appendix, h4.unital)}
    nets = 0
    for u, blocks in cases:
        expected = _is_dual_knet_by_definition(u, blocks, joins[u])
        assert is_dual_knet(u, blocks) == expected, blocks
        nets += expected
    assert nets > 86 + 416


@pytest.mark.parametrize("bad", [0, -1, 209], ids=["zero", "negative", "num_blocks+1"])
@pytest.mark.parametrize("position", range(3))
def test_dual_knet_rejects_a_block_id_out_of_range(appendix, bad, position):
    net = list(APPENDIX_NET)
    net[position] = bad
    assert appendix.num_blocks == 208
    with pytest.raises(IndexError):
        is_dual_knet(appendix, net)


def test_dual_knet_rejects_pairwise_meeting_blocks_with_one_meet_key():
    """The three blocks of a triangle pairwise meet, and each block's meet
    mask is all three, so every pair gives each block the one key 0b111:
    only the disjointness check rejects them."""
    join_rows = ((0, 1, 2), (1, 0, 3), (2, 3, 0))
    u = AbstractUnital(1, 3, ((1, 2), (1, 3), (2, 3)), join_rows)
    assert u.block_meets == (0b111,) * 3
    assert is_dual_knet(u, (1, 2, 3)) is False


def test_too_few_blocks(appendix):
    with pytest.raises(TooFewBlocks):
        is_dual_knet(appendix, (1, 33))


def test_find_dual_3nets_h4_counts(h4, h4_triangles):
    nets = find_dual_3nets(h4.unital)
    assert len(nets) == 208 * 6 // 3  # 416
    assert set(nets) == h4_triangles


def test_find_dual_3nets_appendix_contains_golden(appendix):
    nets = find_dual_3nets(appendix)
    assert APPENDIX_NET in nets


def test_order_3_unitals_have_no_3nets(h3):
    assert find_dual_3nets(h3.unital) == ()


def _dual_3nets_from_full_points(u):
    """The reference search: every pair of `full_point_rows` with more than
    n full points, completed by each block inside its full points that
    comes after both blocks of the pair."""
    nets = []
    for b1, _, _, sets in full_point_rows(u):
        for b2, fp in sets.items():
            if len(fp) > u.order:  # only these can hold a block
                nets.extend((b1, b2, c) for c in blocks_inside(u, fp) if c > b2)
    return tuple(sorted(nets))


def _relabelled_copy(u, rng):
    """A copy with the points relabelled and the blocks shuffled, and the
    map from each block's old index to its new one."""
    labels = list(u.points())
    rng.shuffle(labels)
    order = list(u.block_indices())
    rng.shuffle(order)  # new block i is old block order[i-1]
    copy = validate_unital(u.num_points, [[labels[p - 1] for p in u.block(b)] for b in order])
    return copy, {old: new for new, old in enumerate(order, start=1)}


def test_find_dual_3nets_matches_full_point_search(appendix, h2, h3, h4):
    """The meet-key search equals the full-point search on the appendix
    unital and H(2)-H(5), and on two fixed-seed relabelled copies each of
    the appendix unital and H(4); on a copy the nets are the base nets
    mapped through the block relabelling."""
    for u in (appendix, h2.unital, h3.unital, h4.unital, hermitian_unital(5).unital):
        assert find_dual_3nets(u) == _dual_3nets_from_full_points(u)
    rng = random.Random(15)
    for u, count in ((appendix, 86), (h4.unital, 416)):
        base = find_dual_3nets(u)
        assert len(base) == count
        for _ in range(2):
            copy, new = _relabelled_copy(u, rng)
            nets = find_dual_3nets(copy)
            assert nets == _dual_3nets_from_full_points(copy)
            assert nets == tuple(sorted(tuple(sorted(new[b] for b in net)) for net in base))


def _disjoint_from_both(u, a, b):
    full = (1 << u.num_blocks) - 1
    return list(block_ids(~(u.block_meets[a - 1] | u.block_meets[b - 1]) & full))


def test_meet_key_identity(appendix, appendix_pair_fp, h2, h3):
    """For pairwise disjoint a < b and c, meets[a-1] & meets[c-1] ==
    meets[b-1] & meets[c-1] exactly when block c lies inside the full points
    of (a, b).  Every such triple of H(2) and H(3); 20,000 fixed-seed
    appendix triples, and each appendix net split all three ways."""
    rng = random.Random(7)
    pairs = list(appendix.disjoint_block_pairs())
    sample = []
    for _ in range(20000):
        a, b = rng.choice(pairs)
        sample.append((a, b, rng.choice(_disjoint_from_both(appendix, a, b))))
    splits = [(*sorted(set(net) - {c}), c) for net in find_dual_3nets(appendix) for c in net]
    cases = {u: [(a, b, c) for a, b in u.disjoint_block_pairs() for c in _disjoint_from_both(u, a, b)] for u in (h2.unital, h3.unital)}
    cases[appendix] = sample + splits
    inside = Counter()
    for u, triples in cases.items():
        meets = u.block_meets
        for a, b, c in triples:
            fp = appendix_pair_fp[a, b] if u is appendix else full_points(u, a, b)
            expected = set(u.block(c)) <= set(fp)
            assert (meets[a - 1] & meets[c - 1] == meets[b - 1] & meets[c - 1]) == expected, (a, b, c)
            inside[u] += expected
    assert len(cases[h3.unital]) > 10000 and len(splits) == 3 * 86
    assert (inside[h2.unital], inside[h3.unital]) == (3 * 4, 0) and inside[appendix] >= 3 * 86


def test_lemma25_symmetry_on_discovered_nets(appendix):
    nets = find_dual_3nets(appendix)
    for b1, b2, b3 in nets[:10]:
        assert set(appendix.block(b3)) <= set(full_points(appendix, b1, b2))
        assert set(appendix.block(b1)) <= set(full_points(appendix, b2, b3))
        assert set(appendix.block(b2)) <= set(full_points(appendix, b1, b3))


def test_two_blocks_in_one_full_point_set_are_disjoint(appendix, appendix_pair_fp):
    for (b1, b2), fp in appendix_pair_fp.items():
        inside = blocks_inside(appendix, fp)
        for i, bi in enumerate(inside):
            for bj in inside[i + 1 :]:
                assert appendix.blocks_disjoint(bi, bj)


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
    b1, b2, b3 = (sorted(u.block(b)) for b in sorted(net))
    sets = [frozenset(b) for b in u.all_blocks]
    return tuple(
        tuple(b3.index(next(iter(next(s for s in sets if {p, q} <= s) & set(b3)))) for q in b2) for p in b1
    )


def test_latin_square_raises_exactly_off_dual_3nets(appendix, h2):
    """All appendix nets, fixed-seed triples (1, b, c) of the appendix unital
    and every ordered triple of H(2), repeated blocks included."""
    nets = find_dual_3nets(appendix)
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
        for sq in _isotopes_and_parastrophes(rows, rng):
            assert is_group_based(sq) == name
            assert satisfies_quadrangle_criterion(sq) == (name is not None)


def _isotopes_and_parastrophes(rows, rng):
    """All six parastrophes of two fixed-seed isotopes of the square."""
    m = len(rows)
    for _ in range(2):
        rp, cp, sp = (rng.sample(range(m), m) for _ in range(3))
        yield from _parastrophes(tuple(tuple(sp[rows[rp[i]][cp[j]]] for j in range(m)) for i in range(m)))


def test_cyclic_square_matches_group_name(appendix, h2, h4):
    """The cyclicity test agrees with naming the group, on every net of the
    appendix unital, H(2) and H(4) and on the main-class table.  Four of the
    appendix unital's five non-cyclic nets, the appendix square and most
    switched C8 squares have a row map that is an m-cycle whose powers are
    not the row maps, so a test that stops at the m-cycle fails here."""
    rng = random.Random(13)
    squares = [latin_square_from_3net(u, net) for u in (appendix, h2.unital, h4.unital) for net in find_dual_3nets(u)]
    assert len(squares) == 86 + 4 + 416
    squares += [sq for rows, _ in MAIN_CLASS_CASES for sq in _isotopes_and_parastrophes(rows, rng)]
    verdicts = Counter()
    for sq in squares:
        cyclic = is_cyclic_square(sq)
        assert cyclic == (is_group_based(sq) == f"C{sq.m}")
        verdicts[cyclic, _has_m_cycle_row_map(sq)] += 1
    assert verdicts[False, True] > 0 and verdicts[True, True] > 0


def _has_m_cycle_row_map(sq):
    """Some row, read as a map of the symbols of row 0, is one m-cycle."""
    for row in sq.rows:
        step = dict(zip(sq.rows[0], row))
        orbit = [sq.rows[0][0]]
        while step[orbit[-1]] != orbit[0]:
            orbit.append(step[orbit[-1]])
        if len(orbit) == sq.m:
            return True
    return False


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
        groups = [persp_group(u, b1, b2) for b1 in net for b2 in net if b1 != b2]
        assert len(groups) == 6
        all_cyclic = all(g.is_cyclic() and g.order() == u.order + 1 for g in groups)
        assert is_cyclic_3net(u, net) == all_cyclic


def test_latin_square_rejects_a_repeated_block(appendix):
    with pytest.raises(NotA3Net):
        latin_square_from_3net(appendix, (1, 33, 33))
