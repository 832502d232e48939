"""Full-point census: per-pair analyses, regularity flags, table summaries.

A unital is full point regular (FPR) when, for every disjoint block pair,
the full points lie in a single block disjoint from both; strongly FPR
additionally requires a cyclic semi-regular perspectivity group.  A block's
pairs come from its `full_point_row` over the later disjoint blocks.  Each
pair is analysed once, into a `PairAnalysis` (without its block indices)
that carries its perspectivity group and its FPR and SFPR verdicts; pairs
with at most one full point share one of two analyses.  The unital's one
record is the `Counter` of those analyses; its `UnitalReport` adds only the
FPR/SFPR verdicts read off it, and each table function reads the Counters
itself.  The aggregation mirrors the published census tables: pair rows
keyed by (full point count, group name), FPR/SFPR totals, and the breakdown
of unitals by the structure of their large (>= 3 point) full point sets.
Dual 3-nets are not counted here: `nets.find_dual_3nets` lists them.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import NamedTuple

from .design import AbstractUnital, block_ids
from .groups import closure, generated, structure_name
from .persp import full_point_row, full_points, persp_generators

LARGE_SET_THRESHOLD = 3

FP_EMPTY = "empty"
FP_SINGLE = "single"
FP_IN_BLOCK = "in-block"
FP_NO_3_COLLINEAR = "no-3-collinear"
FP_OTHER = "other"


class PairAnalysis(NamedTuple):
    full_point_count: int
    group_order: int | None  # present only with >= 2 full points
    group_name: str | None
    fp_structure: str
    fpr: bool | None  # verdicts for disjoint pairs only: None for an intersecting pair
    sfpr: bool | None


class UnitalReport(NamedTuple):
    order: int
    pair_kinds: Counter  # PairAnalysis -> number of disjoint pairs analysed to it
    is_fpr: bool
    is_sfpr: bool


EMPTY = PairAnalysis(0, None, None, FP_EMPTY, True, True)
SINGLE = PairAnalysis(1, None, None, FP_SINGLE, True, True)


def _classify_structure(fp, secants: int) -> str:
    if secants.bit_count() == 1:
        return FP_IN_BLOCK
    if secants.bit_count() == len(fp) * (len(fp) - 1) // 2:  # one secant per pair of points
        return FP_NO_3_COLLINEAR
    return FP_OTHER


def group_triples():
    """A function from permutation tuples to the (order, name, cyclic and
    semiregular) triple of their group that closes and names each distinct
    group once.  A new generator set K is listed inside the smallest known
    group G that holds it: <K> = G once the listing passes |G|/2 (Lagrange),
    and otherwise <K> is new, as smaller known groups miss K."""
    by_key, known = {}, []  # known: (group, triple), smallest first

    def triple(generators):
        key = tuple(sorted(set(generators)))
        if key not in by_key:
            outer = next((entry for entry in known if entry[0].elements.issuperset(key)), None)
            g = closure(key) if outer is None else generated(outer[0].degree, key, outer[0].order() // 2)
            if g is None:
                by_key[key] = outer[1]
            else:
                by_key[key] = (g.order(), structure_name(g), g.is_cyclic() and g.is_semiregular())
                insort(known, (g, by_key[key]), key=lambda entry: entry[0].order())
        return by_key[key]

    return triple


def _analyze(u: AbstractUnital, b1: int, b2: int, fp, groups) -> PairAnalysis:
    """The analysis of the disjoint pair (b1, b2) from its full points `fp`."""
    if len(fp) <= 1:
        return SINGLE if fp else EMPTY
    secants = u.secants(fp)
    order, name, cyclic_semiregular = groups(persp_generators(u, b1, b2, fp))
    fpr = secants.bit_count() == 1 and not secants & (u.block_meets[b1 - 1] | u.block_meets[b2 - 1])
    return PairAnalysis(len(fp), order, name, _classify_structure(fp, secants), fpr, fpr and cyclic_semiregular)


def analyze_pair(u: AbstractUnital, b1: int, b2: int) -> tuple[tuple[int, ...], PairAnalysis]:
    """The full points of one block pair, and everything the census needs of it.

    For a disjoint pair, FPR holds when the full points lie in one block
    disjoint from both (vacuously with at most one full point), and SFPR
    when moreover the group is cyclic and semi-regular.  An intersecting
    pair gets no verdicts: its `fpr` and `sfpr` are None.
    """
    fp = full_points(u, b1, b2)
    pa = _analyze(u, b1, b2, fp, group_triples())
    if u.blocks_disjoint(b1, b2):
        return fp, pa
    return fp, pa._replace(fpr=None, sfpr=None)


def _disjoint_pair(u: AbstractUnital, b1: int, b2: int) -> PairAnalysis:
    if not u.blocks_disjoint(b1, b2):
        raise ValueError(f"blocks ({b1},{b2}) are not disjoint")
    return analyze_pair(u, b1, b2)[1]


def is_fpr_triple(u: AbstractUnital, b1: int, b2: int) -> bool:
    """FPR of one disjoint pair, from its `analyze_pair`; vacuous with at most one full point."""
    return _disjoint_pair(u, b1, b2).fpr


def is_sfpr_triple(u: AbstractUnital, b1: int, b2: int) -> bool:
    return _disjoint_pair(u, b1, b2).sfpr


def classify_unital(u: AbstractUnital) -> UnitalReport:
    """Analyse every disjoint pair once into the report's Counter."""
    groups, pair_kinds = group_triples(), Counter()
    full = (1 << u.num_blocks) - 1
    for b1, meets in enumerate(u.block_meets, start=1):
        later = ~meets >> b1 << b1 & full  # blocks b2 > b1 disjoint from b1
        hits, once, twice = full_point_row(u, b1, later), 0, 0
        for _, h in hits:  # as `AbstractUnital.secants` folds its points' blocks
            twice |= once & h
            once |= h
        sets = {b2: [] for b2 in block_ids(twice)}  # the pairs with two or more full points
        for p, h in hits:
            for b2 in block_ids(h & twice):
                sets[b2].append(p)
        pair_kinds.update(_analyze(u, b1, b2, tuple(fp), groups) for b2, fp in sets.items())
        empty, single = later.bit_count() - once.bit_count(), once.bit_count() - twice.bit_count()
        pair_kinds.update({pa: k for pa, k in ((EMPTY, empty), (SINGLE, single)) if k})  # no key counts 0
    return UnitalReport(
        order=u.order,
        pair_kinds=pair_kinds,
        is_fpr=all(pa.fpr for pa in pair_kinds),
        is_sfpr=all(pa.sfpr for pa in pair_kinds),
    )


def group_table_rows(reports) -> list[tuple[int, str, int]]:
    """Rows (full_points, group, unital count): how many unitals contain a
    disjoint pair with that many full points and that group, counting each
    unital once per row key."""
    counter: Counter = Counter()
    for rep in reports:
        counter.update({(pa.full_point_count, pa.group_name) for pa in rep.pair_kinds if pa.full_point_count >= 2})
    return [(fp, name, count) for (fp, name), count in sorted(counter.items())]


def totals_row(library: str, reports) -> tuple[str, int, int, int]:
    reports = list(reports)
    return library, len(reports), sum(r.is_fpr for r in reports), sum(r.is_sfpr for r in reports)


def large_set_rows(reports) -> list[tuple[str, str, int]]:
    """Unital counts by the structure of their large full point sets, the
    kinds with at least LARGE_SET_THRESHOLD full points (the Omega/A/B/Bbar/C
    breakdown, following the published set algebra: Omega = B ∪ Bbar).  A
    set is in a block when its secants are one block, and forms it with
    all n+1 of its points."""
    omega = forms = inside = outside = 0
    for r in reports:
        large = [pa for pa in r.pair_kinds if pa.full_point_count >= LARGE_SET_THRESHOLD]
        in_block = [pa.full_point_count for pa in large if pa.fp_structure == FP_IN_BLOCK]
        if large:  # each count below adds a bool to an int, so stays an int
            omega += 1
            forms += in_block == [r.order + 1] * len(large)
            inside += len(in_block) == len(large)
            outside += not in_block
    return [
        ("Omega", "at least one large full point set", omega),
        ("A", "all large full point sets form a block", forms),
        ("B", "all large full point sets are contained in a block", inside),
        ("Bbar", "some large full point sets are not contained in a block", omega - inside),
        ("C", "no large full point set is contained in a block", outside),
    ]
