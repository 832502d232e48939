"""Census results pinned from the per-pair analysis as first published, and
their invariance under relabelling points and reordering blocks."""

import random
from collections import Counter

import pytest

from unitals.census import classify_unital, group_table_rows, large_set_rows, totals_row
from unitals.design import validate_unital

# Counter over (full points, group order, group name, fp structure) of the
# disjoint pairs, then (FPR, SFPR, has large set, all large form a block,
# all large in a block, some large not in a block, no large in a block,
# nets, cyclic nets).
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
    return {name: classify_unital(u, name) for name, u in designs.items()}


def _flags(rep):
    return (
        rep.is_fpr,
        rep.is_sfpr,
        rep.has_large_set,
        rep.all_large_form_block,
        rep.all_large_in_block,
        rep.some_large_not_in_block,
        rep.no_large_in_block,
        len(rep.nets),
        sum(rep.net_cyclic),
    )


def test_pinned_pair_census(reports):
    for name, (pairs, flags) in PINNED.items():
        rep = reports[name]
        got = Counter((pa.full_point_count, pa.group_order, pa.group_name, pa.fp_structure) for pa in rep.pairs)
        assert got == pairs, name
        assert _flags(rep) == flags, name


def _relabelled(u, rng):
    labels = list(u.points())
    rng.shuffle(labels)
    blocks = [[labels[p - 1] for p in blk] for blk in u.all_blocks]
    rng.shuffle(blocks)
    return validate_unital(u.num_points, blocks)


def test_census_invariant_under_relabelling(designs, reports):
    rng = random.Random(2019)
    for name in ("appendix", "H(4)"):
        rep = reports[name]
        copy = classify_unital(_relabelled(designs[name], rng), name)
        assert group_table_rows([copy]) == group_table_rows([rep]), name
        assert totals_row(name, [copy]) == totals_row(name, [rep]), name
        assert large_set_rows([copy]) == large_set_rows([rep]), name
        assert (len(copy.nets), sum(copy.net_cyclic)) == (len(rep.nets), sum(rep.net_cyclic)), name
