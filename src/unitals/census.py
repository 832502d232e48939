"""Full-point census: per-pair analyses, regularity flags, table summaries.

A unital is full point regular (FPR) when, for every disjoint block pair,
the full points lie in a single block disjoint from both; strongly FPR
additionally requires a cyclic semi-regular perspectivity group.  Each
pair is analysed once, into a `PairAnalysis` that carries its FPR and SFPR
verdicts; the unital's flags are read off those records.  The aggregation
mirrors the published census tables: pair rows keyed by (full point count,
group name), FPR/SFPR totals, and the breakdown of unitals by the
structure of their large (>= 3 point) full point sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .design import AbstractUnital
from .groups import structure_name
from .nets import find_dual_3nets, is_cyclic_3net
from .persp import SameBlock, all_pair_full_points, full_points, persp_group

LARGE_SET_THRESHOLD = 3

FP_EMPTY = "empty"
FP_SINGLE = "single"
FP_IN_BLOCK = "in-block"
FP_NO_3_COLLINEAR = "no-3-collinear"
FP_OTHER = "other"


class NotDisjoint(ValueError):
    pass


class PairAnalysis(NamedTuple):
    b1: int
    b2: int
    disjoint: bool
    full_point_count: int
    group_order: int | None  # present only with >= 2 full points
    group_name: str | None
    fp_structure: str
    fpr: bool | None  # verdicts for disjoint pairs only
    sfpr: bool | None


@dataclass
class UnitalReport:
    name: str
    order: int
    is_fpr: bool
    is_sfpr: bool
    embeddable_in_pg: bool  # contrapositive: non-SFPR unitals cannot embed
    group_keys: frozenset  # (full points, group name) of the pairs with >= 2 full points
    pairs: list[PairAnalysis] = field(default_factory=list)
    nets: list[tuple] = field(default_factory=list)
    net_cyclic: list[bool] = field(default_factory=list)
    has_large_set: bool = False
    all_large_form_block: bool = False
    all_large_in_block: bool = False
    some_large_not_in_block: bool = False
    no_large_in_block: bool = False


def _containing_block(u: AbstractUnital, pts) -> int | None:
    """A block containing all the given points (>= 2 of them), or None."""
    c = u.block_through(pts[0], pts[1])
    return c if set(pts) <= u.block_set(c) else None


def _no_three_collinear(u: AbstractUnital, pts) -> bool:
    s = set(pts)
    return all(len(u.block_set(u.block_through(p, q)) & s) <= 2 for p, q in combinations(pts, 2))


def _classify_structure(u: AbstractUnital, fp, container) -> str:
    if len(fp) == 0:
        return FP_EMPTY
    if len(fp) == 1:
        return FP_SINGLE
    if container is not None:
        return FP_IN_BLOCK
    if _no_three_collinear(u, fp):
        return FP_NO_3_COLLINEAR
    return FP_OTHER


def analyze_pair(u: AbstractUnital, b1: int, b2: int, fp=None) -> PairAnalysis:
    """Everything the census needs of one block pair, with its perspectivity
    group built once.

    For a disjoint pair, FPR holds when the full points lie in one block
    disjoint from both (vacuously with at most one full point), and SFPR
    when moreover the group is cyclic and semi-regular.
    """
    if b1 == b2:
        raise SameBlock("a pair needs two distinct blocks")
    if fp is None:
        fp = full_points(u, b1, b2)
    disjoint = u.blocks_disjoint(b1, b2)
    container = group = None
    if len(fp) >= 2:
        container = _containing_block(u, fp)
        group = persp_group(u, b1, b2, fp=fp)
    fpr = sfpr = None
    if disjoint:
        fpr = len(fp) <= 1 or (
            container is not None and u.blocks_disjoint(container, b1) and u.blocks_disjoint(container, b2)
        )
        sfpr = fpr and (group is None or (group.is_cyclic() and group.is_semiregular()))
    return PairAnalysis(
        b1=b1,
        b2=b2,
        disjoint=disjoint,
        full_point_count=len(fp),
        group_order=None if group is None else group.order(),
        group_name=None if group is None else structure_name(group),
        fp_structure=_classify_structure(u, fp, container),
        fpr=fpr,
        sfpr=sfpr,
    )


def _disjoint_pair(u: AbstractUnital, b1: int, b2: int, fp) -> PairAnalysis:
    if not u.blocks_disjoint(b1, b2):
        raise NotDisjoint(f"blocks ({b1},{b2}) are not disjoint")
    return analyze_pair(u, b1, b2, fp=fp)


def is_fpr_triple(u: AbstractUnital, b1: int, b2: int, fp=None) -> bool:
    """Full point regularity of one disjoint pair; vacuously true with at
    most one full point."""
    return _disjoint_pair(u, b1, b2, fp).fpr


def is_sfpr_triple(u: AbstractUnital, b1: int, b2: int, fp=None) -> bool:
    return _disjoint_pair(u, b1, b2, fp).sfpr


def classify_unital(u: AbstractUnital, name: str = "unital") -> UnitalReport:
    pair_fp = all_pair_full_points(u)
    pairs = [analyze_pair(u, b1, b2, fp=fp) for (b1, b2), fp in pair_fp.items()]
    is_sfpr = all(pa.sfpr for pa in pairs)
    large = [pa for pa in pairs if pa.full_point_count >= LARGE_SET_THRESHOLD]
    in_block = [pa.fp_structure == FP_IN_BLOCK for pa in large]
    forms_block = [pa.fp_structure == FP_IN_BLOCK and pa.full_point_count == u.order + 1 for pa in large]

    nets = list(find_dual_3nets(u, pair_full_points=pair_fp))
    cyclic_flags = [is_cyclic_3net(u, net) for net in nets]

    has_large = bool(large)
    return UnitalReport(
        name=name,
        order=u.order,
        is_fpr=all(pa.fpr for pa in pairs),
        is_sfpr=is_sfpr,
        embeddable_in_pg=is_sfpr,  # necessary condition only
        group_keys=frozenset((pa.full_point_count, pa.group_name) for pa in pairs if pa.full_point_count >= 2),
        pairs=pairs,
        nets=nets,
        net_cyclic=cyclic_flags,
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
        counter.update(rep.group_keys)
    return [(fp, name, count) for (fp, name), count in sorted(counter.items())]


def totals_row(library: str, reports) -> tuple[str, int, int, int]:
    reports = list(reports)
    return (
        library,
        len(reports),
        sum(1 for r in reports if r.is_fpr),
        sum(1 for r in reports if r.is_sfpr),
    )


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
