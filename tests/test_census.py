import random
import re
from collections import Counter
from itertools import permutations

import pytest

from unitals import census
from unitals.census import (
    FP_EMPTY,
    FP_IN_BLOCK,
    FP_NO_3_COLLINEAR,
    FP_OTHER,
    FP_SINGLE,
    analyze_pair,
    classify_unital,
    group_table_rows,
    is_fpr_triple,
    is_sfpr_triple,
    large_set_rows,
    totals_row,
)
from unitals.groups import closure, compose, is_cyclic_regular, structure_name
from unitals.hermitian import hermitian_unital
from unitals.nets import find_dual_3nets, is_cyclic_3net
from unitals.persp import SameBlock, persp_generators, perspectivity_map
from conftest import full_points_by_definition


def test_analyze_pair_appendix_golden(appendix):
    _, pa = analyze_pair(appendix, 1, 33)
    assert pa.fpr is not None  # a disjoint pair gets its verdicts
    assert pa.full_point_count == 5
    assert pa.group_order == 120
    assert pa.group_name == "S5"
    assert pa.fp_structure == FP_IN_BLOCK


def test_analyze_pair_same_block_rejected(appendix):
    with pytest.raises(SameBlock):
        analyze_pair(appendix, 7, 7)


def test_small_pairs_have_no_group_fields(appendix, appendix_pair_fp):
    pair = next(p for p, fp in appendix_pair_fp.items() if len(fp) == 1)
    _, pa = analyze_pair(appendix, *pair)
    assert pa.group_order is None and pa.group_name is None
    assert pa.fp_structure == FP_SINGLE


def test_fp_structure_classes_cover_appendix(appendix):
    structures = Counter()
    for pa, k in classify_unital(appendix).pair_kinds.items():
        structures[pa.fp_structure] += k
    assert structures[FP_EMPTY] == 4560
    assert structures[FP_SINGLE] == 8150
    assert FP_OTHER in structures or FP_IN_BLOCK in structures


def test_appendix_full_point_count_distribution(appendix_pair_fp):
    dist = Counter(len(fp) for fp in appendix_pair_fp.values())
    assert dist == {0: 4560, 1: 8150, 2: 20, 3: 300, 4: 360, 5: 338}


@pytest.mark.parametrize("name", ["h2", "appendix"])
def test_one_pair_questions_share_one_analysis(request, name):
    """`analyze_pair` returns the full points that the definition gives,
    with its analysis, and the triple predicates give that analysis's
    verdicts or reject an intersecting pair, whose analysis has none: on
    every ordered pair of H(2) and on 2,000 seeded ordered pairs of the
    appendix unital."""
    fixture = request.getfixturevalue(name)
    u = getattr(fixture, "unital", fixture)
    pairs = list(permutations(range(1, u.num_blocks + 1), 2))
    if len(pairs) > 2000:
        pairs = random.Random(2019).sample(pairs, 2000)
    for b1, b2 in pairs:
        fp, pa = analyze_pair(u, b1, b2)
        assert fp == full_points_by_definition(u)[b1, b2]
        if u.blocks_disjoint(b1, b2):
            assert None not in (pa.fpr, pa.sfpr)
            assert (is_fpr_triple(u, b1, b2), is_sfpr_triple(u, b1, b2)) == (pa.fpr, pa.sfpr)
        else:
            assert pa.fpr is pa.sfpr is None
            for triple in (is_fpr_triple, is_sfpr_triple):
                with pytest.raises(ValueError, match=re.escape(f"blocks ({b1},{b2}) are not disjoint")):
                    triple(u, b1, b2)


def test_fpr_triple_requires_disjoint_blocks(appendix):
    with pytest.raises(ValueError, match=r"blocks \(1,2\) are not disjoint"):
        is_fpr_triple(appendix, 1, 2)
    with pytest.raises(ValueError, match=r"blocks \(1,2\) are not disjoint"):
        is_sfpr_triple(appendix, 1, 2)


def test_fpr_triple_golden(appendix):
    # full points of (1,33) form block 200, disjoint from both
    assert is_fpr_triple(appendix, 1, 33)
    # the group S5 is neither cyclic nor semi-regular
    assert not is_sfpr_triple(appendix, 1, 33)


def test_fpr_vacuous_vs_strict(appendix, appendix_pair_fp):
    pair = next(p for p, fp in appendix_pair_fp.items() if len(fp) == 1)
    assert is_fpr_triple(appendix, *pair)  # vacuous by default


def test_hermitian_pairs_strongly_regular(h3):
    u = h3.unital
    for b1, b2 in u.disjoint_block_pairs():
        assert is_sfpr_triple(u, b1, b2)


def test_classify_hermitian_small(h2, h3):
    for emb in (h2, h3):
        rep = classify_unital(emb.unital)
        assert rep.order == emb.unital.order
        assert rep.is_fpr and rep.is_sfpr
        assert sum(rep.pair_kinds.values()) == sum(1 for _ in emb.unital.disjoint_block_pairs())
    rep2 = classify_unital(h2.unital)
    rows = {label: count for label, _, count in large_set_rows([rep2])}
    assert rows["Omega"] and rows["A"]
    found = find_dual_3nets(h2.unital)
    assert sum(is_cyclic_3net(h2.unital, net) for net in found) == len(found) > 0


def test_classify_appendix(appendix):
    rep = classify_unital(appendix)
    assert rep.order == 4
    assert not rep.is_sfpr
    assert len(find_dual_3nets(appendix)) == 86
    assert {label: count for label, _, count in large_set_rows([rep])}["Omega"] == 1


@pytest.mark.parametrize("name, groups", [("appendix", 7), ("h3", 3), ("h4", 6)])
def test_classify_closes_each_group_once(request, monkeypatch, name, groups):
    """classify_unital shares one group cache across its streamed rows: each
    distinct group is listed whole and named once, and the Counter is the
    same as analysing every disjoint pair on its own with a fresh cache."""
    fixture = request.getfixturevalue(name)
    u = getattr(fixture, "unital", fixture)
    named = []
    real = census.structure_name
    monkeypatch.setattr(census, "structure_name", lambda g: named.append(g.elements) or real(g))
    pair_kinds = classify_unital(u).pair_kinds
    assert len(named) == len(set(named)) == groups
    assert pair_kinds == Counter(analyze_pair(u, b1, b2)[1] for b1, b2 in u.disjoint_block_pairs())


def _fresh_triple(gens):
    g = closure(gens)
    return g.order(), structure_name(g), g.is_cyclic() and g.is_semiregular()


@pytest.mark.parametrize("name", ["appendix", "h2", "h3", "h4", "h5"])
def test_group_cache_is_exact_on_census_sets(request, monkeypatch, name):
    """Every generator set classify_unital meets gets the triple that a fresh
    closure and naming give it."""
    u = hermitian_unital(5).unital if name == "h5" else request.getfixturevalue(name)
    u = getattr(u, "unital", u)
    met = {}
    real = census.group_triples

    def recording():
        triple = real()

        def lookup(gens):
            got = triple(gens)
            met.setdefault(tuple(sorted(set(gens))), set()).add(got)
            return got

        return lookup

    monkeypatch.setattr(census, "group_triples", recording)
    classify_unital(u)
    assert met
    for key, triples in met.items():
        assert triples == {_fresh_triple(key)}, key


def _cache_gives_fresh_triples(sets):
    triple = census.group_triples()
    for gens in sets:
        assert triple(gens) == _fresh_triple(gens), gens


def _on(degree, *cycles):
    """The permutation of 0..degree-1 with the given cycles."""
    p = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
    return tuple(p)


def test_group_cache_is_exact_at_index_2():
    """A subgroup of index 2 holds exactly half of the group, so it must be
    listed as a new group whether it is met before or after the group."""
    pairs = [
        ([_on(5, (0, 1)), _on(5, (0, 1, 2, 3, 4))], [_on(5, (0, 1, 2)), _on(5, (0, 1, 3)), _on(5, (0, 1, 4))]),  # A5 < S5
        ([_on(5, (0, 1)), _on(5, (0, 1, 2, 3))], [_on(5, (0, 1, 2)), _on(5, (0, 1, 3))]),  # A4 < S4
        ([_on(5, (0, 1, 2, 3, 4)), _on(5, (1, 4), (2, 3))], [_on(5, (0, 1, 2, 3, 4))]),  # C5 < D10
    ]
    for big, small in pairs:
        assert _fresh_triple(big)[0] == 2 * _fresh_triple(small)[0]
        _cache_gives_fresh_triples([big, small])
        _cache_gives_fresh_triples([small, big])


@pytest.mark.parametrize("degree", [5, 6])
def test_group_cache_is_exact_on_random_subgroups(degree):
    """Fixed-seed generator sets of subgroups of S5 and S6, drawn from
    conjugates of transitive and intransitive groups, met with each large
    group before its subgroups, after them, and shuffled."""
    rng = random.Random(degree)
    sources = [
        [_on(degree, (0, 1)), _on(degree, tuple(range(degree)))],  # S_degree
        [_on(degree, (0, 1, k)) for k in range(2, degree)],  # A_degree
        [_on(degree, (0, 1)), _on(degree, (0, 1, 2, 3))],  # S4 on four points
        [_on(degree, (0, 1, 2, 3, 4)), _on(degree, (1, 4), (2, 3))],  # D10
        [_on(degree, (0, 1, 2, 3, 4)), _on(degree, (1, 2, 4, 3))],  # C5 : C4
    ]
    subgroups = []
    for gens in sources:
        elements = sorted(closure(gens).elements)
        for _ in range(12):
            conj = tuple(rng.sample(range(degree), degree))
            back = tuple(sorted(range(degree), key=conj.__getitem__))
            picked = rng.sample(elements, rng.choice((1, 2)))
            subgroups.append([compose(compose(back, g), conj) for g in picked])
    _cache_gives_fresh_triples(sources + subgroups)
    _cache_gives_fresh_triples(subgroups + sources)
    shuffled = sources + subgroups
    rng.shuffle(shuffled)
    _cache_gives_fresh_triples(shuffled)


def test_group_table_rows(h2, h3):
    reports = [classify_unital(h2.unital), classify_unital(h3.unital)]
    rows = group_table_rows(reports)
    assert (3, "C3", 1) in rows
    # each unital counted once per (count, group) key
    assert all(count <= 2 for _, _, count in rows)


def test_totals_row(h2, h3):
    reports = [classify_unital(h2.unital), classify_unital(h3.unital)]
    assert totals_row("hermitian", reports) == ("hermitian", 2, 2, 2)


def test_large_set_rows(h2, appendix):
    reports = [classify_unital(h2.unital), classify_unital(appendix)]
    rows = large_set_rows(reports)
    assert [(label, count) for label, _, count in rows] == [("Omega", 2), ("A", 1), ("B", 1), ("Bbar", 1), ("C", 0)]
    assert all(type(count) is int for _, _, count in rows)


def test_structure_and_secants_match_blocks_on_random_point_sets(appendix):
    """No pinned design has a no-3-collinear full-point set, so the
    classifier is checked on random point sets against the block lists."""
    blocks = [set(b) for b in appendix.all_blocks]
    rng = random.Random(2019)
    kinds = Counter()
    for _ in range(3000):
        pts = rng.sample(range(1, appendix.num_points + 1), rng.randint(2, 8))
        held = [len(b.intersection(pts)) for b in blocks]
        secants = appendix.secants(pts)
        assert secants == sum(1 << i for i, k in enumerate(held) if k >= 2)
        if max(held) == len(pts):
            expected = FP_IN_BLOCK
        elif max(held) == 2:
            expected = FP_NO_3_COLLINEAR
        else:
            expected = FP_OTHER
        assert census._classify_structure(pts, secants) == expected
        kinds[expected] += 1
    assert set(kinds) == {FP_IN_BLOCK, FP_NO_3_COLLINEAR, FP_OTHER}


@pytest.mark.parametrize("name", ["appendix", "h2", "h3", "h4"])
def test_net_perspectivities_are_cyclic_regular_exactly_for_cyclic_nets(request, name):
    """On every ordered pair (b1, b2) of every listed net, the generators
    centered on the third block c are the to-and-back projections through
    c's first point, and they are the powers of one (n+1)-cycle exactly when
    their closure has order n+1 and is cyclic and semiregular, and exactly
    when `is_cyclic_3net` calls the net cyclic."""
    fixture = request.getfixturevalue(name)
    u = getattr(fixture, "unital", fixture)
    for net in find_dual_3nets(u):
        cyc = is_cyclic_3net(u, net)
        for b1, b2, c in permutations(net):
            centers = u.block(c)
            gens = persp_generators(u, b1, b2, centers)
            back = perspectivity_map(u, b2, centers[0], b1)
            assert gens == [compose(perspectivity_map(u, b1, p, b2), back) for p in centers]
            g = closure(gens)
            assert is_cyclic_regular(gens) == (g.order() == u.order + 1 and g.is_cyclic() and g.is_semiregular()) == cyc
