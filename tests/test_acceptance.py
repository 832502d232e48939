"""End-to-end acceptance gate.

Each test covers one exit criterion and prints a single PASS/FAIL line
(visible even under captured output) with its runtime.  The final,
library-scale census comparison needs external block-list files and only
runs when UNITAL_LIBRARY_DIR is set.
"""

import os
import random
import time
from itertools import combinations

import pytest

from unitals.census import is_sfpr_triple, totals_row, classify_unital
from unitals.design import validate_unital
from unitals.formats import builtin_appendix_unital, load_unital
from unitals.hermitian import (
    all_polar_triangles,
    are_conjugate_lines,
    hermitian_unital,
    is_baer_subline,
    polar_triangle_completion,
    polar_triangles_through_block,
)
from unitals.nets import (
    LatinSquare,
    find_dual_3nets,
    is_dual_knet,
    is_group_based,
    latin_square_from_3net,
)
from unitals.persp import full_points, persp_group
from test_nets import blocks_inside, satisfies_quadrangle_criterion


class _Check:
    """Runs a criterion body, times it, and prints one PASS/FAIL line."""

    def __init__(self, capsys, number, title, limit=None):
        self.capsys = capsys
        self.number = number
        self.title = title
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"criterion {self.number:>2} [{verdict}] {self.title} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_01_hermitian_construction(capsys):
    with _Check(capsys, 1, "Hermitian unital construction for q=2,3,4", limit=10):
        for q, blocks in ((2, 12), (3, 63), (4, 208)):
            emb = hermitian_unital(q)
            u = emb.unital
            assert u.order == q
            assert u.num_points == q**3 + 1
            assert u.num_blocks == q * q * (q * q - q + 1) == blocks
            validate_unital(u.num_points, u.all_blocks)


def test_criterion_02_conjugate_pairs_even_q(capsys, h2, h4, h4_pair_fp):
    with _Check(capsys, 2, "conjugate disjoint pairs: full points = third triangle block", limit=60):
        for emb in (h2, h4):
            q = emb.unital.order
            u = emb.unital
            pair_fp = h4_pair_fp if q == 4 else {(b1, b2): full_points(u, b1, b2) for b1, b2 in u.disjoint_block_pairs()}
            checked = 0
            for (b1, b2), fp in pair_fp.items():
                l1, l2 = emb.block_line(b1), emb.block_line(b2)
                if not are_conjugate_lines(emb.plane, l1, l2):
                    continue
                l3 = polar_triangle_completion(emb.plane, l1, l2)
                b3 = emb.line_to_block[l3]
                assert sorted(fp) == sorted(emb.unital.block(b3))
                assert len(fp) == q + 1
                checked += 1
            assert checked > 0


def test_criterion_03_triangles_per_block(capsys, h2, h4):
    with _Check(capsys, 3, "polar triangles per block: 1 for H(2), 6 for H(4)"):
        for emb, expected in ((h2, 1), (h4, 6)):
            for b in emb.unital.block_indices():
                assert len(polar_triangles_through_block(emb, b)) == expected


def test_criterion_04_nonconjugate_pairs_h4(capsys, h4, h4_pair_fp):
    with _Check(capsys, 4, "non-conjugate disjoint pairs of H(4) have at most 1 full point"):
        for (b1, b2), fp in h4_pair_fp.items():
            l1, l2 = h4.block_line(b1), h4.block_line(b2)
            if not are_conjugate_lines(h4.plane, l1, l2):
                assert len(fp) <= 1


def test_criterion_05_hermitian_strong_regularity(capsys, h3, h4, h4_pair_fp):
    with _Check(capsys, 5, "H(3), H(4): every disjoint pair SFPR, cyclic semi-regular group", limit=300):
        for emb in (h3, h4):
            q = emb.unital.order
            u = emb.unital
            pair_fp = h4_pair_fp if q == 4 else {(b1, b2): full_points(u, b1, b2) for b1, b2 in u.disjoint_block_pairs()}
            for (b1, b2), fp in pair_fp.items():
                assert is_sfpr_triple(u, b1, b2, fp=fp)
                if len(fp) >= 2:
                    g = persp_group(u, b1, b2, fp=fp)
                    assert g.is_cyclic() and g.is_semiregular()
                    assert (q * q - 1) % g.order() == 0


def test_criterion_06_full_point_bounds(capsys, appendix, h2, h3, h4):
    with _Check(capsys, 6, "full point counts within the n^2-n / n^2-1 bounds"):
        for u in (appendix, h2.unital, h3.unital, h4.unital):
            n = u.order
            for b1, b2 in combinations(u.block_indices(), 2):
                bound = n * n - 1 if u.blocks_disjoint(b1, b2) else n * n - n
                assert len(full_points(u, b1, b2)) <= bound


def test_criterion_07_appendix_goldens(capsys, appendix):
    with _Check(capsys, 7, "embedded order-4 unital: non-cyclic 3-net and S5 group", limit=10):
        u = builtin_appendix_unital()
        assert u.num_points == 65 and u.num_blocks == 208 and u.order == 4
        net = (1, 33, 200)
        assert is_dual_knet(u, net)
        sq = latin_square_from_3net(u, net)
        assert is_group_based(sq) is None
        g = persp_group(u, 1, 33)
        assert not g.is_cyclic()
        assert g.order() == 120  # derived golden value


def test_criterion_08_no_knets_beyond_3(capsys, appendix, h4, h4_pair_fp, appendix_pair_fp):
    with _Check(capsys, 8, "order 4: no dual k-net with k >= 4, at most 1 extra whole block per full point set"):
        for u, pair_fp in ((appendix, appendix_pair_fp), (h4.unital, h4_pair_fp)):
            nets = find_dual_3nets(u)
            # no 3-net extends to a 4-net
            for net in nets:
                for c in u.block_indices():
                    if c in net:
                        continue
                    if all(u.blocks_disjoint(c, b) for b in net):
                        assert not is_dual_knet(u, net + (c,))
            # a full point set holds at most n-3 = 1 whole blocks
            for fp in pair_fp.values():
                assert len(blocks_inside(u, fp)) <= 1


def test_criterion_09_cyclicity_cross_check(capsys, appendix, h2, h4):
    with _Check(capsys, 9, "3-net cyclicity agrees with all-six-groups-cyclic test"):
        jobs = [
            (h2.unital, find_dual_3nets(h2.unital)),
            (h4.unital, find_dual_3nets(h4.unital)),
            (appendix, find_dual_3nets(appendix)),
        ]
        from unitals.nets import is_cyclic_3net

        for u, nets in jobs:
            assert nets
            for net in nets:
                groups = [persp_group(u, b1, b2) for b1 in net for b2 in net if b1 != b2]
                six_cyclic = all(g.is_cyclic() and g.order() == u.order + 1 for g in groups)
                assert is_cyclic_3net(u, net) == six_cyclic


def test_criterion_10_baer_sublines(capsys, h2, h3, h4):
    with _Check(capsys, 10, "every block of H(q) is a Baer subline, q=2,3,4"):
        for emb in (h2, h3, h4):
            for b in emb.unital.block_indices():
                coords = [emb.point(p) for p in emb.unital.block(b)]
                assert is_baer_subline(emb.plane, coords)


def test_criterion_11_latin_square_oracles(capsys):
    with _Check(capsys, 11, "group-based test agrees with quadrangle criterion on 2000 shuffles"):
        z5 = LatinSquare(5, tuple(tuple((i + j) % 5 for j in range(5)) for i in range(5)))
        u = builtin_appendix_unital()
        appendix_sq = latin_square_from_3net(u, (1, 33, 200))
        rng = random.Random(987654321)
        for base in (z5, appendix_sq):
            for _ in range(1000):
                rp, cp, sp = list(range(5)), list(range(5)), list(range(5))
                rng.shuffle(rp)
                rng.shuffle(cp)
                rng.shuffle(sp)
                sq = LatinSquare(
                    5, tuple(tuple(sp[base.rows[rp[i]][cp[j]]] for j in range(5)) for i in range(5))
                )
                assert (is_group_based(sq) is not None) == satisfies_quadrangle_criterion(sq)


LIBRARY_TOTALS = {
    "bbt": (909, 815, 815),
    "krc": (4466, 4081, 4081),
    "knp": (1777, 1586, 1582),
}


@pytest.mark.skipif(
    "UNITAL_LIBRARY_DIR" not in os.environ,
    reason="library census needs external block-list files; set UNITAL_LIBRARY_DIR to run",
)
def test_criterion_12_library_census(capsys):
    root = os.environ["UNITAL_LIBRARY_DIR"]
    with _Check(capsys, 12, "library census totals match the published values"):
        ran = 0
        for label, expected in LIBRARY_TOTALS.items():
            subdir = os.path.join(root, label)
            if not os.path.isdir(subdir):
                continue
            reports = []
            for name in sorted(os.listdir(subdir)):
                path = os.path.join(subdir, name)
                if os.path.isfile(path):
                    reports.append(classify_unital(load_unital(path), name=name))
            assert totals_row(label, reports)[1:] == expected
            ran += 1
        assert ran > 0, f"no library subdirectories (bbt/krc/knp) found under {root}"
