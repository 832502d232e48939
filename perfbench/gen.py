"""Seeded benchmark inputs, built without the program under test.

The base designs are the order-4 appendix unital, read from the program's
data file, and the Hermitian unitals H(q), built here from their
definition over this module's own GF(q^2) arithmetic.  Inputs therefore
stay the same when the program's own constructions change.  A copy of a
base design relabels its points, shuffles its blocks and the points inside
each block, and is written as text or JSON.  The seed changes only these
choices and which query pairs are drawn.  Every seed gives the same
designs, and the same number of query pairs of each kind; the work of a
full-point scan still depends a little on the labels, because it stops
checking a point at the first join that misses the second block.

    python3 perfbench/gen.py WORKLOAD SEED WORKDIR

run from the repository root, writes the inputs of one workload into
WORKDIR, in a process of its own, so that the oracle's tables do not
count in the benchmark's memory.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import oracle

APPENDIX_FILE = Path("src/unitals/data/appendix_order4.txt")

# census-o4: copies in this fixed order of kinds, so that the census's
# two workers see the same schedule for every seed; the file that parses
# but is not a unital comes last.
CENSUS_KINDS = ("appendix", "H4")

# dualnets-o4: the designs of one pass, in this order.
DUALNETS_KINDS = ("appendix", "H4") * 2

# pair-queries: per base design, the queries of each of the three strata
# (intersecting pairs, disjoint pairs with <= 1 full point, disjoint pairs
# with >= 2); 900 in all.  Within a stratum the queries are split over
# the kinds of pair in proportion to how many pairs of each kind the base
# design has (`oracle.Oracle.pair_kinds`).
QUERIES_PER_STRATUM = {"appendix": 100, "H4": 100, "H5": 100}
STRATA = ("intersecting", "fp<=1", "fp>=2")

# The canonical appendix pair (1, 33): five full points and group S5.
# Each set-up names its group, which warms the structure catalog.
PROBE_PAIR = (1, 33)


@dataclass(frozen=True)
class Design:
    name: str
    order: int
    num_points: int
    blocks: tuple  # tuple of sorted point tuples, 1-based points


@dataclass(frozen=True)
class Copy:
    base: Design
    point_map: tuple  # canonical point p -> point_map[p - 1]
    block_map: tuple  # copy block j -> canonical block block_map[j - 1]
    blocks: tuple  # blocks as written, in copy order and copy labels

    def copy_block(self, canonical: int) -> int:
        return self.block_map.index(canonical) + 1

    def copy_points(self, canonical_points) -> tuple:
        return tuple(sorted(self.point_map[p - 1] for p in canonical_points))


def appendix_design(root: Path) -> Design:
    blocks = []
    for line in (root / APPENDIX_FILE).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            blocks.append(tuple(sorted(int(x) for x in line.split())))
    return Design("appendix", len(blocks[0]) - 1, max(max(b) for b in blocks), tuple(blocks))


def _field(p: int, k: int):
    """GF(p^k) on coefficient tuples (low degree first): multiplication
    table, inverses and the element list."""
    elems = list(product(range(p), repeat=k))
    one = (1,) + (0,) * (k - 1)

    def mul(a, b, mod):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # x^k = -(mod[0] + mod[1] x + ...)
            c = prod[d] % p
            for i in range(k):
                prod[d - k + i] -= c * mod[i]
        return tuple(v % p for v in prod[:k])

    for mod in product(range(p), repeat=k):
        table = {(a, b): mul(a, b, mod) for a in elems for b in elems}
        inverse = {a: b for a in elems[1:] for b in elems[1:] if table[a, b] == one}
        if len(inverse) == len(elems) - 1:  # no zero divisors: the modulus is irreducible
            return elems, table, inverse
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def hermitian_design(q: int) -> Design:
    """H(q): the points of x^(q+1) + y^(q+1) + z^(q+1) = 0 in PG(2, q^2),
    with the secant lines as blocks."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 2
    while p ** (k // 2) < q:
        k += 2
    elems, mul, inverse = _field(p, k)
    zero, one = elems[0], (1,) + (0,) * (k - 1)

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    def norm(a):
        r = a
        for _ in range(q):
            r = mul[r, a]
        return r

    def normalize(v):
        last = next(c for c in reversed(v) if c != zero)
        inv = inverse[last]
        return tuple(mul[c, inv] for c in v)

    triples = [(x, y, one) for x in elems for y in elems]
    triples += [(x, one, zero) for x in elems] + [(one, zero, zero)]
    curve = sorted(t for t in triples if add(add(norm(t[0]), norm(t[1])), norm(t[2])) == zero)
    ids = {t: i for i, t in enumerate(curve, start=1)}
    lines: dict = {}
    for a, b in combinations(curve, 2):
        line = normalize((
            sub(mul[a[1], b[2]], mul[a[2], b[1]]),
            sub(mul[a[2], b[0]], mul[a[0], b[2]]),
            sub(mul[a[0], b[1]], mul[a[1], b[0]]),
        ))
        lines.setdefault(line, set()).update((ids[a], ids[b]))
    blocks = tuple(sorted(tuple(sorted(s)) for s in lines.values()))
    return Design(f"H{q}", q, len(curve), blocks)


def relabel(design: Design, rng: random.Random) -> Copy:
    point_map = list(range(1, design.num_points + 1))
    rng.shuffle(point_map)
    block_map = list(range(1, len(design.blocks) + 1))
    rng.shuffle(block_map)
    blocks = []
    for c in block_map:
        blk = [point_map[p - 1] for p in design.blocks[c - 1]]
        rng.shuffle(blk)
        blocks.append(tuple(blk))
    return Copy(design, tuple(point_map), tuple(block_map), tuple(blocks))


def write_copy(copy: Copy, path: Path, fmt: str, rng: random.Random) -> None:
    base = copy.base
    if fmt == "json":
        obj = {"name": path.stem, "order": base.order, "points": base.num_points,
               "blocks": [list(b) for b in copy.blocks]}
        path.write_text(json.dumps(obj, indent=rng.choice((None, 1))) + "\n")
    else:
        sep = rng.choice((" ", ", "))
        lines = [f"# relabelled copy of {base.name}"]
        lines += [sep.join(str(p) for p in b) for b in copy.blocks]
        path.write_text("\n".join(lines) + "\n")


def not_a_unital(copy: Copy, rng: random.Random) -> Copy:
    """The copy with one point of one block swapped for a point off it: it
    still parses, but some point pair is then covered twice."""
    blocks = list(copy.blocks)
    j = rng.randrange(len(blocks))
    off = [p for p in range(1, copy.base.num_points + 1) if p not in blocks[j]]
    blk = list(blocks[j])
    blk[rng.randrange(len(blk))] = rng.choice(off)
    blocks[j] = tuple(blk)
    return Copy(copy.base, copy.point_map, copy.block_map, tuple(blocks))


def base_designs(root: Path, names) -> dict:
    """Designs by name: "appendix", or "Hq" for the Hermitian unital H(q)."""
    return {n: appendix_design(root) if n == "appendix" else hermitian_design(int(n[1:])) for n in names}


def make_census(root: Path, workdir: Path, rng: random.Random) -> dict:
    bases = base_designs(root, ("appendix", "H4"))
    census_dir = workdir / "census"
    census_dir.mkdir()
    formats = rng.sample(["text", "json"] * (len(CENSUS_KINDS) // 2), len(CENSUS_KINDS))
    files, kinds = [], []
    first_appendix = None
    for i, kind in enumerate(CENSUS_KINDS, start=1):
        fmt = formats.pop()
        copy = relabel(bases[kind], rng)
        path = census_dir / f"c{i:02d}.{'json' if fmt == 'json' else 'txt'}"
        write_copy(copy, path, fmt, rng)
        files.append(path.name)
        kinds.append(kind)
        if kind == "appendix" and first_appendix is None:
            first_appendix = (path, copy)
    bad = census_dir / f"c{len(CENSUS_KINDS) + 1:02d}.txt"
    write_copy(not_a_unital(relabel(bases["appendix"], rng), rng), bad, "text", rng)
    path, copy = first_appendix
    return {
        "dir": str(census_dir),
        "files": files + [bad.name],
        "kinds": kinds,
        "bad": bad.name,
        "probe": [str(path), copy.copy_block(PROBE_PAIR[0]), copy.copy_block(PROBE_PAIR[1])],
    }


def make_dualnets(root: Path, workdir: Path, rng: random.Random) -> dict:
    bases = base_designs(root, ("appendix", "H4"))
    designs = []
    for kind in DUALNETS_KINDS:
        copy = relabel(bases[kind], rng)
        designs.append({"name": kind, "points": copy.base.num_points, "blocks": [list(b) for b in copy.blocks]})
        if kind == "appendix" and len(designs) == 1:
            probe = [0, copy.copy_block(PROBE_PAIR[0]), copy.copy_block(PROBE_PAIR[1])]
    path = workdir / "designs.json"
    path.write_text(json.dumps(designs))
    return {"designs": str(path), "probe": probe}


def quota(counts: dict, total: int) -> dict:
    """Split total over the keys of counts in proportion to their counts,
    rounding by largest remainder (ties broken by key)."""
    n = sum(counts.values())
    exact = {k: total * c / n for k, c in counts.items()}
    out = {k: int(v) for k, v in exact.items()}
    order = sorted(exact, key=lambda k: (out[k] - exact[k], str(k)))
    for k in order[:total - sum(out.values())]:
        out[k] += 1
    return out


def make_queries(root: Path, workdir: Path, rng: random.Random) -> dict:
    bases = base_designs(root, QUERIES_PER_STRATUM)
    files, queries = [], []
    probe = None
    for name, base in bases.items():
        orc = oracle.Oracle(base)
        copies = []
        for fmt in ("text", "json"):
            copy = relabel(base, rng)
            path = workdir / f"q-{name}.{'json' if fmt == 'json' else 'txt'}"
            write_copy(copy, path, fmt, rng)
            files.append(str(path))
            copies.append((str(path), copy))
        if name == "appendix":
            path, copy = copies[0]
            probe = [path, copy.copy_block(PROBE_PAIR[0]), copy.copy_block(PROBE_PAIR[1])]
        kinds = orc.pair_kinds()
        i = 0
        for stratum in STRATA:
            counts = {k: len(pairs) for k, pairs in kinds.items() if k[0] == stratum}
            for kind, m in sorted(quota(counts, QUERIES_PER_STRATUM[name]).items(), key=str):
                for b1, b2 in rng.sample(kinds[kind], m):
                    if rng.random() < 0.5:
                        b1, b2 = b2, b1
                    fp, group, sfpr = orc.answer(b1, b2)
                    path, copy = copies[i % 2]
                    i += 1
                    expect = [list(copy.copy_points(fp)), group, sfpr]
                    queries.append([path, copy.copy_block(b1), copy.copy_block(b2), stratum, expect])
    rng.shuffle(queries)
    path = workdir / "queries.json"
    path.write_text(json.dumps(queries))
    return {"files": files, "queries": str(path), "probe": probe}


MAKERS = {"census-o4": make_census, "dualnets-o4": make_dualnets, "pair-queries": make_queries}


def make(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the inputs of one workload into workdir; return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = MAKERS[workload](root, workdir, rng)
    why = {w["name"]: w["why"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    manifest.update(workload=workload, seed=seed, why=why[workload])
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


if __name__ == "__main__":
    make(sys.argv[1], int(sys.argv[2]), Path.cwd(), Path(sys.argv[3]))
