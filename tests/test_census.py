import random
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
    NotDisjoint,
    analyze_pair,
    classify_unital,
    group_table_rows,
    is_fpr_triple,
    is_sfpr_triple,
    large_set_rows,
    totals_row,
)
from unitals.nets import find_dual_3nets, is_cyclic_3net
from unitals.persp import SameBlock, full_point_rows, full_points


def test_analyze_pair_appendix_golden(appendix):
    pa = analyze_pair(appendix, 1, 33)
    assert pa.disjoint
    assert pa.full_point_count == 5
    assert pa.group_order == 120
    assert pa.group_name == "S5"
    assert pa.fp_structure == FP_IN_BLOCK


def test_analyze_pair_same_block_rejected(appendix):
    with pytest.raises(SameBlock):
        analyze_pair(appendix, 7, 7)


def test_small_pairs_have_no_group_fields(appendix, appendix_pair_fp):
    pair = next(p for p, fp in appendix_pair_fp.items() if len(fp) == 1)
    pa = analyze_pair(appendix, *pair)
    assert pa.group_order is None and pa.group_name is None
    assert pa.fp_structure == FP_SINGLE


def test_fp_structure_classes_cover_appendix(appendix, appendix_pair_fp):
    structures = Counter(
        analyze_pair(appendix, b1, b2).fp_structure
        for b1, b2 in appendix_pair_fp
    )
    assert structures[FP_EMPTY] == 4560
    assert structures[FP_SINGLE] == 8150
    assert FP_OTHER in structures or FP_IN_BLOCK in structures


def test_appendix_full_point_count_distribution(appendix_pair_fp):
    dist = Counter(len(fp) for fp in appendix_pair_fp.values())
    assert dist == {0: 4560, 1: 8150, 2: 20, 3: 300, 4: 360, 5: 338}


def test_fpr_triple_requires_disjoint_blocks(appendix):
    with pytest.raises(NotDisjoint):
        is_fpr_triple(appendix, 1, 2)
    with pytest.raises(NotDisjoint):
        is_sfpr_triple(appendix, 1, 2)


def test_fpr_triple_golden(appendix):
    # full points of (1,33) form block 200, disjoint from both
    assert is_fpr_triple(appendix, 1, 33)
    # the group S5 is neither cyclic nor semi-regular
    assert not is_sfpr_triple(appendix, 1, 33)


def test_fpr_vacuous_vs_strict(appendix, appendix_pair_fp):
    pair = next(p for p, fp in appendix_pair_fp.items() if len(fp) == 1)
    assert is_fpr_triple(appendix, *pair)  # vacuous by default


def test_regularity_triples_reject_wrong_full_points(appendix):
    fp = full_points(appendix, 1, 33)
    assert is_fpr_triple(appendix, 1, 33, fp=fp) and not is_sfpr_triple(appendix, 1, 33, fp=list(fp))
    for wrong in (fp + fp[:1], fp[1:], (), fp[::-1]):
        with pytest.raises(ValueError):
            is_fpr_triple(appendix, 1, 33, fp=wrong)
        with pytest.raises(ValueError):
            is_sfpr_triple(appendix, 1, 33, fp=wrong)


def test_hermitian_pairs_strongly_regular(h3):
    u = h3.unital
    for (b1, b2), fp in full_point_rows(u):
        assert is_sfpr_triple(u, b1, b2, fp=fp)


def test_classify_hermitian_small(h2, h3):
    for emb, name in ((h2, "H(2)"), (h3, "H(3)")):
        rep = classify_unital(emb.unital, name)
        assert rep.name == name
        assert rep.order == emb.q
        assert rep.is_fpr and rep.is_sfpr and rep.embeddable_in_pg
        assert sum(rep.pair_kinds.values()) == sum(1 for _ in emb.unital.disjoint_block_pairs())
    rep2 = classify_unital(h2.unital, "H(2)")
    assert rep2.has_large_set and rep2.all_large_form_block
    assert rep2.cyclic_net_count == rep2.net_count > 0


def test_classify_appendix(appendix):
    rep = classify_unital(appendix, "appendix")
    assert rep.order == 4
    assert not rep.is_sfpr
    assert not rep.embeddable_in_pg
    assert rep.net_count == 86
    assert rep.has_large_set


@pytest.mark.parametrize("name, closures", [("appendix", 129), ("h3", 6), ("h4", 6)])
def test_classify_closes_each_generator_set_once(request, monkeypatch, name, closures):
    """classify_unital shares one group dict across its streamed rows: one
    closure per distinct generator set, and the same Counter as analysing
    every disjoint pair on its own with a fresh dict."""
    fixture = request.getfixturevalue(name)
    u = getattr(fixture, "unital", fixture)
    calls = []
    real = census.closure
    monkeypatch.setattr(census, "closure", lambda gens: calls.append(gens) or real(gens))
    pair_kinds = classify_unital(u, name).pair_kinds
    assert len(calls) == len(set(calls)) == closures
    assert pair_kinds == Counter(analyze_pair(u, b1, b2) for b1, b2 in u.disjoint_block_pairs())


def test_group_table_rows(h2, h3):
    reports = [classify_unital(h2.unital, "H(2)"), classify_unital(h3.unital, "H(3)")]
    rows = group_table_rows(reports)
    assert (3, "C3", 1) in rows
    # each unital counted once per (count, group) key
    assert all(count <= 2 for _, _, count in rows)


def test_totals_row(h2, h3):
    reports = [classify_unital(h2.unital, "H(2)"), classify_unital(h3.unital, "H(3)")]
    assert totals_row("hermitian", reports) == ("hermitian", 2, 2, 2)


def test_large_set_rows(h2, appendix):
    reports = [classify_unital(h2.unital, "H(2)"), classify_unital(appendix, "appendix")]
    rows = {label: count for label, _, count in large_set_rows(reports)}
    assert rows["Omega"] == 2
    assert rows["B"] + rows["Bbar"] == rows["Omega"]
    assert rows["A"] <= rows["B"]
    assert rows["C"] <= rows["Bbar"]


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
def test_net_counts_match_latin_square_path(request, name):
    """The census counts nets and cyclic nets from its pair analyses; the
    net listing and latin-square test of `unital dualnets` are the
    reference.  The center-group path taken when a pair has more full points
    than the net's third block is called directly with that block as
    centers, since no pinned design has such a pair."""
    fixture = request.getfixturevalue(name)
    u = getattr(fixture, "unital", fixture)
    cyclic = {net: is_cyclic_3net(u, net) for net in find_dual_3nets(u)}
    rep = classify_unital(u, name)
    assert (rep.net_count, rep.cyclic_net_count) == (len(cyclic), sum(cyclic.values()))
    groups = {}
    for net, cyc in cyclic.items():
        for b1, b2, c in permutations(net):
            pa = analyze_pair(u, b1, b2)
            assert (pa.nets, pa.cyclic_nets) == (1, cyc)
            order, _, cyclic_semiregular = census._center_group(u, b1, b2, u.block(c), groups)
            assert (order == u.order + 1 and cyclic_semiregular) == cyc
