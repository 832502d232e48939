"""Small permutation groups: closure from generators and structure naming.

Groups in this project act on at most a handful of points (block positions
or points of a projective line), so full element enumeration is cheap and
no stabilizer-chain machinery is needed.  Structure names come from a
catalog keyed by (order, abelian flag, element-order spectrum), built per
order from permutation models of the small groups it covers, enumerated
and keyed by the same code as the groups it names; ambiguous keys fall back
to a label of invariants.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import combinations
from math import lcm, prod

MAX_GROUP_ORDER = 10_000


class GroupTooLarge(ValueError):
    """A closure grew past MAX_GROUP_ORDER elements."""


def compose(a: tuple, b: tuple) -> tuple:
    """The permutation that applies a first, then b (images of 0..d-1)."""
    return tuple(map(b.__getitem__, a))


def relative_to_first(maps) -> list[tuple]:
    """The maps m0^-1 m, m0 = maps[0] (m first, then m0^-1), in order; the
    first is the identity.  The maps send 0..d-1 into one common target of
    d positions, so each result is a permutation of 0..d-1."""
    back = [0] * len(maps[0])
    for i, x in enumerate(maps[0]):
        back[x] = i
    return [compose(m, back) for m in maps]


def is_cyclic_regular(maps) -> bool:
    """True when the maps, of degree m, are exactly the powers of one of them
    that is an m-cycle g: they are then the cyclic regular group <g> = C_m.
    Any m-cycle of C_m generates it, so the first one found decides.  No
    group is built."""
    maps = set(maps)
    for g in maps:
        orbit = [0]
        while g[orbit[-1]]:
            orbit.append(g[orbit[-1]])
        if len(orbit) == len(g):  # the orbit of 0 is everything
            powers = [g]
            while len(powers) < len(g):
                powers.append(compose(powers[-1], g))
            return set(powers) == maps
    return False


def _cycle_lengths(p: tuple) -> list[int]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        n, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        if n:
            lengths.append(n)
    return lengths


class PermGroup:
    """All elements of a permutation group, each an image tuple.

    Element orders come from cycle types, read once here; order, spectrum,
    cyclicity and semiregularity all derive from them.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = frozenset(elements)
        self._spectrum = Counter()
        self._semiregular = True
        for g in self.elements:
            lengths = _cycle_lengths(g)
            o = lcm(*lengths)
            self._spectrum[o] += 1
            if o > 1 and 1 in lengths:
                self._semiregular = False

    def order(self) -> int:
        return len(self.elements)

    def is_cyclic(self) -> bool:
        return self.order() in self._spectrum

    def is_semiregular(self) -> bool:
        """True when only the identity fixes a point."""
        return self._semiregular

    def element_order_spectrum(self) -> dict[int, int]:
        return dict(self._spectrum)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def closure(generators) -> PermGroup:
    """Enumerate the group generated by the given permutation tuples, each
    a permutation of range(degree), one degree for all."""
    degree = len(generators[0]) if generators else 1
    if any(len(g) != degree for g in generators):
        raise ValueError("generators have mixed degrees")
    points = set(range(degree))
    if any(set(g) != points for g in generators):
        raise ValueError(f"a generator is not a permutation of range({degree})")
    return generated(degree, generators)


def generated(degree, generators, limit=None) -> PermGroup | None:
    """The group of permutation tuples of one degree, listed breadth first
    from the identity; None once it has more than `limit` elements, when
    `limit` is given, and GroupTooLarge past MAX_GROUP_ORDER otherwise.
    With `limit` half of a known group G that holds the generators, None
    says they generate all of G (Lagrange)."""
    identity = tuple(range(degree))
    gens = list(dict.fromkeys(g for g in generators if g != identity))
    stop = MAX_GROUP_ORDER if limit is None else limit
    listed = [identity]
    elements = set(listed)
    for a in listed:  # grows while it is read
        if len(listed) > stop:
            break
        for g in gens:
            c = compose(a, g)
            if c not in elements:
                elements.add(c)
                listed.append(c)
    if len(listed) <= stop:
        return PermGroup(degree, gens, elements)
    if limit is None:
        raise GroupTooLarge(f"group order exceeds cap {MAX_GROUP_ORDER}")
    return None


# ----------------------------------------------------------------------
# structure naming
#
# A catalog model is (order, name, build), build() giving (degree,
# generators).  The catalog of one order builds only its own models and
# lists each by `generated` up to that order, whatever MAX_GROUP_ORDER is: it
# is keyed by the same `_key` as the groups it names, and a trace of
# `closure` sees only the groups the analysis builds.


def _key(group: PermGroup) -> tuple:
    abelian = all(compose(a, b) == compose(b, a) for a, b in combinations(group.generators, 2))
    return (group.order(), abelian, frozenset(group.element_order_spectrum().items()))


def _direct(*models):
    """The direct product of the models, on disjoint point sets."""
    degree = sum(d for d, _ in models)
    gens, start = [], 0
    for d, model_gens in models:
        fixed_after = tuple(range(start + d, degree))
        gens += [tuple(range(start)) + tuple(start + x for x in g) + fixed_after for g in model_gens]
        start += d
    return degree, gens


def _cyclic(*factors):
    """C_f1 x C_f2 x ..., one rotation per factor."""
    return _direct(*((m, [tuple(range(1, m)) + (0,)]) for m in factors))


def _metacyclic(m, n, t, s=0):
    """<a, b | a^m = 1, b^n = a^s, bab^-1 = a^t> acting on itself from the
    right; a^i b^j is point i + mj, a sends it to a^(i + t^j) b^j, and b to
    a^i b^(j+1), or to a^(i+s) when j = n-1."""
    assert pow(t, n, m) == 1 and s * t % m == s % m
    a = tuple((i + pow(t, j, m)) % m + m * j for j in range(n) for i in range(m))
    b = tuple(i + m * (j + 1) if j < n - 1 else (i + s) % m for j in range(n) for i in range(m))
    return m * n, [a, b]


def _sym(n, even_only=False):
    """S_n from the transpositions (0 k), or A_n from the 3-cycles (0 1 k)."""
    gens = []
    for k in range(2 if even_only else 1, n):
        p = list(range(n))
        if even_only:
            p[0], p[1], p[k] = 1, k, 0
        else:
            p[0], p[k] = k, 0
        gens.append(tuple(p))
    return n, gens


def _sl23():
    """SL(2,3) on the 8 nonzero vectors of GF(3)^2, from two transvections."""
    vectors = [(x, y) for x in range(3) for y in range(3) if x or y]

    def acting(a, b, c, d):
        return tuple(vectors.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in vectors)

    return 8, [acting(1, 1, 0, 1), acting(1, 0, 1, 1)]


def _abelian_chains(max_order):
    """Invariant-factor chains d1, d2, ... (each > 1 and divisible by the
    next) with product <= max_order: one per abelian group."""
    chains = [(d,) for d in range(2, max_order + 1)]
    for chain in chains:  # grows while it is read
        room = max_order // prod(chain)
        chains += [chain + (d,) for d in range(2, min(chain[-1], room) + 1) if chain[-1] % d == 0]
    return chains


@cache
def _models() -> tuple:
    models = [(prod(c), " x ".join(f"C{d}" for d in c), partial(_cyclic, *c)) for c in _abelian_chains(24)]
    # dihedral groups, named by their order
    models += [(2 * m, "S3" if m == 3 else f"D{2 * m}", partial(_metacyclic, m, 2, m - 1)) for m in range(3, 13)]
    models += [
        (8, "Q8", lambda: _metacyclic(4, 2, 3, 2)),
        (12, "C3 : C4", lambda: _metacyclic(3, 4, 2)),
        (16, "Q16", lambda: _metacyclic(8, 2, 7, 4)),
        (20, "Dic5", lambda: _metacyclic(5, 4, 4)),
        (24, "Dic6", lambda: _metacyclic(12, 2, 11, 6)),
        (16, "SD16", lambda: _metacyclic(8, 2, 3)),
        (16, "M16", lambda: _metacyclic(8, 2, 5)),
        (16, "C4 : C4", lambda: _metacyclic(4, 4, 3)),
        (20, "C5 : C4", lambda: _metacyclic(5, 4, 2)),  # Frobenius group of order 20
        (21, "C7 : C3", lambda: _metacyclic(7, 3, 2)),
        (24, "C3 : C8", lambda: _metacyclic(3, 8, 2)),
        (12, "A4", lambda: _sym(4, even_only=True)),
        (24, "S4", lambda: _sym(4)),
        (60, "A5", lambda: _sym(5, even_only=True)),
        (120, "S5", lambda: _sym(5)),
        # the translations of Z3 x Z3 and x -> -x
        (18, "(C3 x C3) : C2", lambda: (6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (0, 2, 1, 3, 5, 4)])),
        (18, "C3 x S3", lambda: _metacyclic(3, 6, 2)),
        (16, "C2 x D8", lambda: _direct(_cyclic(2), _metacyclic(4, 2, 3))),
        (16, "C2 x Q8", lambda: _direct(_cyclic(2), _metacyclic(4, 2, 3, 2))),
        (24, "C2 x A4", lambda: _direct(_cyclic(2), _sym(4, even_only=True))),
        (24, "C4 x S3", lambda: _metacyclic(12, 2, 5)),
        (24, "C2 x C2 x S3", lambda: _direct(_cyclic(2, 2), _metacyclic(3, 2, 2))),
        (24, "C2 x (C3 : C4)", lambda: _metacyclic(6, 4, 5)),
        (24, "C3 x D8", lambda: _metacyclic(12, 2, 7)),
        (24, "C3 x Q8", lambda: _metacyclic(12, 2, 7, 6)),
        (24, "SL(2,3)", _sl23),
    ]
    return tuple(models)


@cache
def _catalog(order: int) -> dict:
    catalog: dict[tuple, str | None] = {}
    for n, name, build in _models():
        if n == order:
            key = _key(generated(*build(), n))
            # a key shared by two names is ambiguous; None forces the fallback label
            catalog[key] = name if catalog.get(key, name) == name else None
    return catalog


def structure_name(group: PermGroup) -> str:
    """Human-readable isomorphism-type label, e.g. "C5", "D10", "C5 : C4".

    The catalog key (order, abelian flag, spectrum) decides isomorphism only
    below order 16.  A key that names no unique entry gets a label of
    invariants: the key, the element-order spectrum of the centre and the
    number of squares.  They tell C4 : C4 from C2 x Q8 and the Pauli group
    from C2^2 : C4, but equal labels do not prove two groups isomorphic.
    """
    n = group.order()
    if n == 1:
        return "1"
    key = _key(group)
    name = _catalog(n).get(key)
    if name:
        return name
    centre = Counter(lcm(*_cycle_lengths(z)) for z in group.elements if all(compose(z, g) == compose(g, z) for g in group.generators))
    squares = len({compose(g, g) for g in group.elements})
    spectra = [", ".join(f"{o}:{c}" for o, c in sorted(s.items())) for s in (group.element_order_spectrum(), centre)]
    return f"G(order={n}, abelian={key[1]}, spectrum={{{spectra[0]}}}, centre={{{spectra[1]}}}, squares={squares})"
