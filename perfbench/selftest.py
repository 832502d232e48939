"""Fast self-test of the benchmark's input generator and oracle.

    python3 perfbench/selftest.py

Run it from the repository root; it prints one line per check and exits
nonzero if any check fails.
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402


def census_rows(unitals, u):
    from unitals.census import group_table_rows, large_set_rows, totals_row

    reports = [unitals.classify_unital(u)]
    return group_table_rows(reports), totals_row("x", reports), large_set_rows(reports)


def check_oracle_appendix(unitals):
    orc = oracle.Oracle(gen.appendix_design(ROOT))
    fp, group, sfpr = orc.answer(1, 33)
    return fp == (30, 31, 35, 46, 48) and group == [120, "S5"] and sfpr is False


def check_relabelled_h3(unitals):
    h3 = gen.hermitian_design(3)
    copy = gen.relabel(h3, random.Random(3))
    original = unitals.validate_unital(h3.num_points, h3.blocks)
    relabelled = unitals.validate_unital(h3.num_points, copy.blocks)
    return (h3.num_points, len(h3.blocks)) == (28, 63) and census_rows(unitals, original) == census_rows(
        unitals, relabelled)


def check_oracle_matches_program(unitals):
    """Oracle answers, mapped through the relabelling, equal the program's
    on 200 random pairs of a relabelled appendix copy and H(3) copy."""
    from unitals.census import is_sfpr_triple

    rng = random.Random(4)
    for design in (gen.appendix_design(ROOT), gen.hermitian_design(3)):
        orc = oracle.Oracle(design)
        copy = gen.relabel(design, rng)
        u = unitals.validate_unital(design.num_points, copy.blocks)
        for _ in range(100):
            b1, b2 = rng.sample(range(1, len(design.blocks) + 1), 2)
            fp, group, sfpr = orc.answer(b1, b2)
            c1, c2 = copy.copy_block(b1), copy.copy_block(b2)
            got = unitals.full_points(u, c1, c2)
            if got != copy.copy_points(fp):
                return False
            if group and [unitals.persp_group(u, c1, c2).order()] != group[:1]:
                return False
            if sfpr is not None and is_sfpr_triple(u, c1, c2) != sfpr:
                return False
    return True


def check_pair_sweep(unitals):
    """The oracle's sweep over points finds the same full points as its
    scan of one pair, on every pair of H(3) and 500 pairs of the appendix
    unital; query quotas add up and follow the pair counts."""
    rng = random.Random(6)
    for design, pairs in ((gen.hermitian_design(3), None), (gen.appendix_design(ROOT), 500)):
        orc = oracle.Oracle(design)
        table = orc.all_full_points()
        nblocks = len(design.blocks)
        every = [(b1, b2) for b1 in range(1, nblocks + 1) for b2 in range(b1 + 1, nblocks + 1)]
        for b1, b2 in rng.sample(every, pairs) if pairs else every:
            if table.get((b1, b2), ()) != orc.full_points(b1, b2):
                return False
    split = gen.quota({"a": 55, "b": 283, "c": 680}, 167)
    return sum(split.values()) == 167 and split == {"a": 9, "b": 46, "c": 112}


def check_not_a_unital(unitals):
    rng = random.Random(5)
    bad = gen.not_a_unital(gen.relabel(gen.appendix_design(ROOT), rng), rng)
    try:
        unitals.validate_unital(65, bad.blocks)
    except unitals.NotAUnital as e:
        return "covered by blocks" in str(e)
    return False


def check_generator_deterministic(unitals):
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        contents = []
        for i, seed in enumerate((7, 7, 8)):
            d = work / str(i)
            d.mkdir(parents=True)
            gen.make("census-o4", seed, ROOT, d)
            contents.append([p.read_bytes() for p in sorted((d / "census").iterdir())])
        return contents[0] == contents[1] != contents[2]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    import unitals

    failed = 0
    for check in (check_oracle_appendix, check_relabelled_h3, check_oracle_matches_program,
                  check_pair_sweep, check_not_a_unital, check_generator_deterministic):
        ok = check(unitals)
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
