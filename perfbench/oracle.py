"""Reference answers, computed from a block list alone.

Nothing here calls the program under test.  Full points use a counting
characterisation rather than the program's scan: a point P off two blocks
b1, b2 lies on exactly n+1 blocks that meet b1, and P is a full point
exactly when all n+1 of them also meet b2.  Blocks and sets of blocks are
Python ints used as bitsets.  Perspectivity groups are closed on plain
tuples and named only when the name is forced by the group's invariants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

# Per copy in census-o4, what the three census tables must count.
CENSUS_PER_COPY = {
    "appendix": {
        "groups": {(2, "C5"), (3, "C5"), (4, "C5"), (5, "C5"), (5, "S5")},
        "fpr": 0, "sfpr": 0,
        "large": {"Omega": 1, "A": 0, "B": 0, "Bbar": 1, "C": 0},
    },
    "H4": {
        "groups": {(5, "C5")},
        "fpr": 1, "sfpr": 1,
        "large": {"Omega": 1, "A": 1, "B": 1, "Bbar": 0, "C": 0},
    },
}

# (embedded dual 3-nets, cyclic ones) per base design of dualnets-o4.
NETS = {"H4": (416, 416), "appendix": (86, 81)}

# Element-order spectrum of S5, the one non-cyclic group the inputs produce.
S5_SPECTRUM = {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}


@dataclass(frozen=True)
class Group:
    order: int
    cyclic: bool
    semiregular: bool
    spectrum: dict

    @property
    def name(self) -> str:
        if self.cyclic:
            return f"C{self.order}"
        if self.spectrum == S5_SPECTRUM:
            return "S5"
        raise ValueError(f"no reference name for a group of order {self.order}: {self.spectrum}")


class Oracle:
    def __init__(self, design):
        self.design = design
        self.order = design.order
        self.block_pts = [0] + [sum(1 << p for p in b) for b in design.blocks]
        through = [0] * (design.num_points + 1)
        for i, b in enumerate(design.blocks, start=1):
            for p in b:
                through[p] |= 1 << i
        self.through = through
        self.meets = [0] + [_union(through[p] for p in b) for b in design.blocks]

    def all_full_points(self) -> dict:
        """Full points of every block pair b1 < b2 that has any, found by a
        sweep over points instead of pairs: the blocks b2 that have a point
        P off b1 as a full point are the blocks off P that meet every join
        of P to a point of b1."""
        out = {}
        for p in range(1, self.design.num_points + 1):
            off_p = ~self.through[p]
            for b1, pts in enumerate(self.design.blocks, start=1):
                if self.block_pts[b1] >> p & 1:
                    continue
                hits = off_p & ~((2 << b1) - 1)  # b2 > b1
                for q in pts:
                    hits &= self.meets[self._block_of(p, q)]
                while hits:
                    b2 = (hits & -hits).bit_length() - 1
                    out.setdefault((b1, b2), []).append(p)
                    hits &= hits - 1
        return {pair: tuple(fp) for pair, fp in out.items()}

    def pair_kinds(self) -> dict:
        """Every block pair b1 < b2, grouped by kind: (stratum, number of
        full points, name of the perspectivity group or None).  The strata
        are "intersecting", "fp<=1" and "fp>=2"; the last two are disjoint
        pairs."""
        fps = self.all_full_points()
        nblocks = len(self.design.blocks)
        out = {}
        for b1 in range(1, nblocks + 1):
            for b2 in range(b1 + 1, nblocks + 1):
                fp = fps.get((b1, b2), ())
                if not self.disjoint(b1, b2):
                    stratum = "intersecting"
                else:
                    stratum = "fp<=1" if len(fp) <= 1 else "fp>=2"
                name = self.group(b1, b2, fp).name if len(fp) >= 2 else None
                out.setdefault((stratum, len(fp), name), []).append((b1, b2))
        return out

    def disjoint(self, b1: int, b2: int) -> bool:
        return not self.block_pts[b1] & self.block_pts[b2]

    def full_points(self, b1: int, b2: int) -> tuple:
        both = self.meets[b1] & self.meets[b2]
        off = self.block_pts[b1] | self.block_pts[b2]
        need = self.order + 1
        return tuple(
            p for p in range(1, self.design.num_points + 1)
            if not off >> p & 1 and (self.through[p] & both).bit_count() == need
        )

    def _block_of(self, p: int, q: int) -> int:
        return (self.through[p] & self.through[q]).bit_length() - 1

    def _projection(self, center: int, src: int, dst: int) -> tuple:
        """Positions in sorted dst of the images of the points of sorted src."""
        dst_pts = self.design.blocks[dst - 1]
        dst_mask = self.block_pts[dst]
        images = []
        for q in self.design.blocks[src - 1]:
            hit = self.block_pts[self._block_of(center, q)] & dst_mask
            images.append(dst_pts.index(hit.bit_length() - 1))
        return tuple(images)

    def group(self, b1: int, b2: int, fp) -> Group:
        fwd = [self._projection(p, b1, b2) for p in fp]
        back = [self._projection(p, b2, b1) for p in fp]
        gens = {tuple(b[i] for i in f) for f in fwd for b in back}
        identity = tuple(range(self.order + 1))
        elems = {identity}
        frontier = [identity]
        while frontier:
            frontier = [c for c in {tuple(g[i] for i in a) for a in frontier for g in gens} if c not in elems]
            elems.update(frontier)
        orders = Counter(_perm_order(g) for g in elems)
        return Group(
            order=len(elems),
            cyclic=orders[len(elems)] > 0,
            semiregular=all(g == identity or all(g[i] != i for i in identity) for g in elems),
            spectrum=dict(orders),
        )

    def answer(self, b1: int, b2: int):
        """What `unital fullpoints` must report: the full points, the group
        as [order, name] when there are >= 2 of them, and the SFPR flag of a
        disjoint pair (None for an intersecting one)."""
        fp = self.full_points(b1, b2)
        group = self.group(b1, b2, fp) if len(fp) >= 2 else None
        sfpr = None
        if self.disjoint(b1, b2):
            sfpr = len(fp) <= 1 or (self._fpr(b1, b2, fp) and group.cyclic and group.semiregular)
        return fp, group and [group.order, group.name], sfpr

    def _fpr(self, b1: int, b2: int, fp) -> bool:
        c = self._block_of(fp[0], fp[1])
        pts = self.block_pts[c]
        return all(pts >> p & 1 for p in fp) and self.disjoint(c, b1) and self.disjoint(c, b2)


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _perm_order(g: tuple) -> int:
    seen = 0
    order = 1
    for start in range(len(g)):
        if seen >> start & 1:
            continue
        length, i = 0, start
        while not seen >> i & 1:
            seen |= 1 << i
            i = g[i]
            length += 1
        order = lcm(order, length)
    return order


def census_tables(kinds, label: str) -> dict:
    """Expected census CSV rows (header excluded) for copies of these kinds."""
    groups = Counter(key for k in kinds for key in CENSUS_PER_COPY[k]["groups"])
    large = Counter()
    for k in kinds:
        large.update(CENSUS_PER_COPY[k]["large"])
    return {
        "groups": [[str(fp), name, str(n)] for (fp, name), n in sorted(groups.items())],
        "totals": [[label, str(len(kinds)),
                    str(sum(CENSUS_PER_COPY[k]["fpr"] for k in kinds)),
                    str(sum(CENSUS_PER_COPY[k]["sfpr"] for k in kinds))]],
        "large": [[s, str(large[s])] for s in ("Omega", "A", "B", "Bbar", "C")],
    }
