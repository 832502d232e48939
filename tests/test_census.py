from collections import Counter

import pytest

from unitals.census import (
    FP_EMPTY,
    FP_IN_BLOCK,
    FP_OTHER,
    FP_SINGLE,
    NotDisjoint,
    all_pair_full_points,
    analyze_pair,
    classify_unital,
    group_table_rows,
    is_fpr_triple,
    is_sfpr_triple,
    large_set_rows,
    totals_row,
)
from unitals.persp import SameBlock


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
        analyze_pair(appendix, b1, b2, fp=fp).fp_structure
        for (b1, b2), fp in appendix_pair_fp.items()
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


def test_hermitian_pairs_strongly_regular(h3, h3_pair_fp=None):
    u = h3.unital
    for (b1, b2), fp in all_pair_full_points(u).items():
        assert is_sfpr_triple(u, b1, b2, fp=fp)


def test_classify_hermitian_small(h2, h3):
    for emb, name in ((h2, "H(2)"), (h3, "H(3)")):
        rep = classify_unital(emb.unital, name)
        assert rep.name == name
        assert rep.order == emb.q
        assert rep.is_fpr and rep.is_sfpr and rep.embeddable_in_pg
        assert len(rep.pairs) == sum(1 for _ in emb.unital.disjoint_block_pairs())
    rep2 = classify_unital(h2.unital, "H(2)")
    assert rep2.has_large_set and rep2.all_large_form_block
    assert all(rep2.net_cyclic) and rep2.nets


def test_classify_appendix(appendix):
    rep = classify_unital(appendix, "appendix")
    assert rep.order == 4
    assert not rep.is_sfpr
    assert not rep.embeddable_in_pg
    assert len(rep.nets) == 86
    assert (1, 33, 200) in rep.nets
    assert rep.has_large_set


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
