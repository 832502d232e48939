"""Full-point census: per-pair analyses, regularity flags, table summaries.

A unital is full point regular (FPR) when, for every disjoint block pair,
the full points lie in a single block disjoint from both; strongly FPR
additionally requires a cyclic semi-regular perspectivity group.  Rows
stream in from `full_point_rows`, one per block.  Each pair is analysed
once, into a `PairAnalysis` (without its block indices) that carries its
FPR and SFPR verdicts and counts the dual 3-nets through it, cyclic ones
apart; pairs with at most one full point share one of two analyses.  The
unital's one record is the `Counter` of those analyses, and every flag,
net count and table row is read off it.  The aggregation mirrors the
published census tables: pair rows keyed by (full point count, group
name), FPR/SFPR totals, and the breakdown of unitals by the structure of
their large (>= 3 point) full point sets.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .design import AbstractUnital, block_ids
from .groups import closure, is_cyclic_regular, structure_name, subgroup_of
from .persp import full_point_rows, full_points, persp_generators

LARGE_SET_THRESHOLD = 3

FP_EMPTY = "empty"
FP_SINGLE = "single"
FP_IN_BLOCK = "in-block"
FP_NO_3_COLLINEAR = "no-3-collinear"
FP_OTHER = "other"


class NotDisjoint(ValueError):
    pass


class PairAnalysis(NamedTuple):
    disjoint: bool
    full_point_count: int
    group_order: int | None  # present only with >= 2 full points
    group_name: str | None
    fp_structure: str
    fpr: bool | None  # verdicts for disjoint pairs only
    sfpr: bool | None
    nets: int  # blocks inside the full points: the dual 3-nets through a disjoint pair
    cyclic_nets: int


@dataclass
class UnitalReport:
    name: str
    order: int
    pair_kinds: Counter  # PairAnalysis -> number of disjoint pairs analysed to it
    is_fpr: bool
    is_sfpr: bool
    embeddable_in_pg: bool  # contrapositive: non-SFPR unitals cannot embed
    net_count: int
    cyclic_net_count: int
    has_large_set: bool
    all_large_form_block: bool
    all_large_in_block: bool
    some_large_not_in_block: bool
    no_large_in_block: bool


def _classify_structure(fp, secants: int) -> str:
    if len(fp) == 0:
        return FP_EMPTY
    if len(fp) == 1:
        return FP_SINGLE
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
            g = closure(key) if outer is None else subgroup_of(outer[0], key)
            if g is None:
                by_key[key] = outer[1]
            else:
                by_key[key] = (g.order(), structure_name(g), g.is_cyclic() and g.is_semiregular())
                insort(known, (g, by_key[key]), key=lambda entry: entry[0].order())
        return by_key[key]

    return triple


def _analyze(u: AbstractUnital, b1: int, b2: int, fp, groups) -> PairAnalysis:
    """The analysis of the disjoint pair (b1, b2) from its full points `fp`.
    A block c inside fp makes a dual 3-net; the maps phi_P0^-1 phi_P, P on
    c, are its square's row maps r0^-1 r, so the net is cyclic exactly when
    they are the powers of one (n+1)-cycle (`is_cyclic_regular`)."""
    secants, group = 0, (None, None, True)  # (order, name, cyclic and semiregular)
    nets = cyclic_nets = 0
    if len(fp) >= 2:
        secants = u.secants(fp)
        group = groups(persp_generators(u, b1, b2, fp))
    if len(fp) > u.order:  # only these can hold a block, and only a secant can lie inside fp
        points = set(fp)
        for c in block_ids(secants):
            if points.issuperset(u.block(c)):
                # With c = fp the n+1 maps are distinct, and a semiregular group of degree
                # n+1 has order at most n+1: the pair's cached flag is the same test.
                cyclic = group[2] if len(fp) == u.order + 1 else is_cyclic_regular(persp_generators(u, b1, b2, u.block(c)))
                nets, cyclic_nets = nets + 1, cyclic_nets + cyclic
    fpr = len(fp) <= 1 or secants.bit_count() == 1 and not secants & (u.block_meets[b1 - 1] | u.block_meets[b2 - 1])
    sfpr = fpr and group[2]
    structure = _classify_structure(fp, secants)
    return PairAnalysis(True, len(fp), group[0], group[1], structure, fpr, sfpr, nets, cyclic_nets)


def analyze_pair(u: AbstractUnital, b1: int, b2: int) -> tuple[tuple[int, ...], PairAnalysis]:
    """The full points of one block pair, and everything the census needs of it.

    For a disjoint pair, FPR holds when the full points lie in one block
    disjoint from both (vacuously with at most one full point), and SFPR
    when moreover the group is cyclic and semi-regular.  An intersecting
    pair gets no verdicts and no nets.
    """
    fp = full_points(u, b1, b2)
    pa = _analyze(u, b1, b2, fp, group_triples())
    if u.blocks_disjoint(b1, b2):
        return fp, pa
    return fp, pa._replace(disjoint=False, fpr=None, sfpr=None, nets=0, cyclic_nets=0)


def _disjoint_pair(u: AbstractUnital, b1: int, b2: int, fp) -> PairAnalysis:
    if not u.blocks_disjoint(b1, b2):
        raise NotDisjoint(f"blocks ({b1},{b2}) are not disjoint")
    actual, pa = analyze_pair(u, b1, b2)
    if fp is not None and tuple(fp) != actual:
        raise ValueError(f"{list(fp)} are not the full points {list(actual)} of ({b1},{b2})")
    return pa


def is_fpr_triple(u: AbstractUnital, b1: int, b2: int, fp=None) -> bool:
    """Full point regularity of one disjoint pair; vacuously true with at
    most one full point.  A given `fp` must be the pair's full points."""
    return _disjoint_pair(u, b1, b2, fp).fpr


def is_sfpr_triple(u: AbstractUnital, b1: int, b2: int, fp=None) -> bool:
    return _disjoint_pair(u, b1, b2, fp).sfpr


def classify_unital(u: AbstractUnital, name: str = "unital") -> UnitalReport:
    """Analyse every disjoint pair once into the report's Counter.  Each dual
    3-net {a, b, c} is counted from each of its three pairs, hence the / 3."""
    groups, pair_kinds = group_triples(), Counter()
    small = [_analyze(u, None, None, fp, groups) for fp in ((), (None,))]  # reads no block and no point
    for b1, empty, single, sets in full_point_rows(u):
        pair_kinds.update(_analyze(u, b1, b2, fp, groups) for b2, fp in sets.items())
        pair_kinds.update({pa: k for pa, k in zip(small, (empty, single)) if k})  # no key counts 0
    is_sfpr = all(pa.sfpr for pa in pair_kinds)
    large = [pa for pa in pair_kinds if pa.full_point_count >= LARGE_SET_THRESHOLD]
    in_block = [pa.fp_structure == FP_IN_BLOCK for pa in large]
    forms_block = [pa.fp_structure == FP_IN_BLOCK and pa.full_point_count == u.order + 1 for pa in large]
    has_large = bool(large)
    return UnitalReport(
        name=name,
        order=u.order,
        pair_kinds=pair_kinds,
        is_fpr=all(pa.fpr for pa in pair_kinds),
        is_sfpr=is_sfpr,
        embeddable_in_pg=is_sfpr,  # necessary condition only
        net_count=sum(k * pa.nets for pa, k in pair_kinds.items()) // 3,
        cyclic_net_count=sum(k * pa.cyclic_nets for pa, k in pair_kinds.items()) // 3,
        has_large_set=has_large,
        all_large_form_block=has_large and all(forms_block),
        all_large_in_block=has_large and all(in_block),
        some_large_not_in_block=has_large and not all(in_block),
        no_large_in_block=has_large and not any(in_block),
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
    """Unital counts by large full-point-set structure (the Omega/A/B/Bbar/C
    breakdown, following the published set algebra: Omega = B ∪ Bbar)."""
    reports = list(reports)
    omega = [r for r in reports if r.has_large_set]
    return [
        ("Omega", "at least one large full point set", len(omega)),
        ("A", "all large full point sets form a block", sum(1 for r in omega if r.all_large_form_block)),
        ("B", "all large full point sets are contained in a block", sum(1 for r in omega if r.all_large_in_block)),
        ("Bbar", "some large full point sets are not contained in a block", sum(1 for r in omega if r.some_large_not_in_block)),
        ("C", "no large full point set is contained in a block", sum(1 for r in omega if r.no_large_in_block)),
    ]
