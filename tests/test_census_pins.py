"""Census results pinned from the per-pair analysis as first published, and
their invariance under relabelling points and reordering blocks."""

import random
from collections import Counter

import pytest

from unitals.census import classify_unital, group_table_rows, large_set_rows, totals_row
from unitals.hermitian import hermitian_unital
from unitals.nets import find_dual_3nets, is_cyclic_3net
from conftest import relabelled

# Counter over (full points, group order, group name, fp structure) of the
# disjoint pairs, then (FPR, SFPR, has large set, all large form a block,
# all large in a block, some large not in a block, no large in a block,
# nets, cyclic nets); the five large-set values are the Omega, A, B, Bbar
# and C counts of `large_set_rows` of the one unital, and the net counts
# of `find_dual_3nets` and `is_cyclic_3net`.
PINNED = {
    "appendix": (
        {
            (0, None, None, "empty"): 4560,
            (1, None, None, "single"): 8150,
            (2, 5, "C5", "in-block"): 20,
            (3, 5, "C5", "in-block"): 300,
            (4, 5, "C5", "in-block"): 360,
            (5, 5, "C5", "in-block"): 243,
            (5, 5, "C5", "other"): 40,
            (5, 120, "S5", "in-block"): 15,
            (5, 120, "S5", "other"): 40,
        },
        (False, False, True, False, False, True, False, 86, 81),
    ),
    "H(2)": (
        {(3, 3, "C3", "in-block"): 12},
        (True, True, True, True, True, False, False, 4, 4),
    ),
    "H(3)": (
        {(0, None, None, "empty"): 189, (2, 4, "C4", "in-block"): 756},
        (True, True, False, False, False, False, False, 0, 0),
    ),
    "H(4)": (
        {(1, None, None, "single"): 12480, (5, 5, "C5", "in-block"): 1248},
        (True, True, True, True, True, False, False, 416, 416),
    ),
}


@pytest.fixture(scope="module")
def designs(appendix, h2, h3, h4):
    return {"appendix": appendix, "H(2)": h2.unital, "H(3)": h3.unital, "H(4)": h4.unital}


@pytest.fixture(scope="module")
def reports(designs):
    return {name: classify_unital(u) for name, u in designs.items()}


def _census(rep):
    got = Counter()
    for pa, count in rep.pair_kinds.items():
        got[pa.full_point_count, pa.group_order, pa.group_name, pa.fp_structure] += count
    return got


def _nets(u):
    found = find_dual_3nets(u)
    return len(found), sum(is_cyclic_3net(u, net) for net in found)


def _flags(u, rep):
    return (rep.is_fpr, rep.is_sfpr, *(count for _, _, count in large_set_rows([rep])), *_nets(u))


def test_pinned_pair_census(designs, reports):
    for name, (pairs, flags) in PINNED.items():
        rep = reports[name]
        assert _census(rep) == pairs, name
        assert _flags(designs[name], rep) == flags, name


def test_census_invariant_under_relabelling(designs, reports):
    rng = random.Random(2019)
    for name in ("appendix", "H(4)"):
        rep = reports[name]
        u, _ = relabelled(designs[name], rng)
        copy = classify_unital(u)
        assert group_table_rows([copy]) == group_table_rows([rep]), name
        assert totals_row(name, [copy]) == totals_row(name, [rep]), name
        assert large_set_rows([copy]) == large_set_rows([rep]), name
        assert _nets(u) == _nets(designs[name]), name


def test_pinned_pair_census_of_h5():
    u = hermitian_unital(5).unital
    rep = classify_unital(u)
    assert _census(rep) == {
        (0, None, None, "empty"): 36750,
        (2, 3, "C3", "in-block"): 31500,
        (2, 6, "C6", "in-block"): 31500,
    }
    assert _flags(u, rep) == (True, True, False, False, False, False, False, 0, 0)
